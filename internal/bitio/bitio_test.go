package bitio

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBit(t *testing.T) {
	w := NewWriter(4)
	bits := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range bits {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsRoundTrip(t *testing.T) {
	cases := []struct {
		v uint64
		n uint
	}{
		{0, 1}, {1, 1}, {0b101, 3}, {0xFF, 8}, {0x1234, 16},
		{0xDEADBEEF, 32}, {0xFFFFFFFFFFFFFFFF, 64}, {42, 7}, {0, 64},
	}
	w := NewWriter(64)
	for _, c := range cases {
		w.WriteBits(c.v, c.n)
	}
	r := NewReader(w.Bytes())
	for i, c := range cases {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.v {
			t.Fatalf("case %d: got %#x want %#x", i, got, c.v)
		}
	}
}

func TestWriteBitsZeroWidth(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(123, 0) // no-op
	w.WriteBits(1, 1)
	if w.BitLen() != 1 {
		t.Fatalf("BitLen = %d, want 1", w.BitLen())
	}
}

func TestBitLen(t *testing.T) {
	w := NewWriter(8)
	if w.BitLen() != 0 {
		t.Fatalf("empty BitLen = %d", w.BitLen())
	}
	w.WriteBits(0, 13)
	if w.BitLen() != 13 {
		t.Fatalf("BitLen = %d, want 13", w.BitLen())
	}
	w.WriteBits(0, 3)
	if w.BitLen() != 16 {
		t.Fatalf("BitLen = %d, want 16", w.BitLen())
	}
}

func TestWriteBytesAligned(t *testing.T) {
	w := NewWriter(8)
	w.WriteBytes([]byte{1, 2, 3})
	if !bytes.Equal(w.Bytes(), []byte{1, 2, 3}) {
		t.Fatalf("got %v", w.Bytes())
	}
	r := NewReader(w.Bytes())
	p := make([]byte, 3)
	if err := r.ReadBytes(p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("got %v", p)
	}
}

func TestWriteBytesUnaligned(t *testing.T) {
	w := NewWriter(8)
	w.WriteBit(1)
	w.WriteBytes([]byte{0xAB, 0xCD})
	r := NewReader(w.Bytes())
	if b, _ := r.ReadBit(); b != 1 {
		t.Fatal("first bit lost")
	}
	p := make([]byte, 2)
	if err := r.ReadBytes(p); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p, []byte{0xAB, 0xCD}) {
		t.Fatalf("got %v", p)
	}
}

func TestAlign(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0b101, 3)
	w.Align()
	w.WriteBits(0xFF, 8)
	r := NewReader(w.Bytes())
	v, _ := r.ReadBits(3)
	if v != 0b101 {
		t.Fatalf("prefix = %b", v)
	}
	r.Align()
	v, _ = r.ReadBits(8)
	if v != 0xFF {
		t.Fatalf("aligned byte = %#x", v)
	}
}

func TestShortBuffer(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(16); err != ErrShortBuffer {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
	r2 := NewReader(nil)
	if _, err := r2.ReadBit(); err != ErrShortBuffer {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
	r3 := NewReader([]byte{1, 2})
	if err := r3.ReadBytes(make([]byte, 3)); err != ErrShortBuffer {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
}

func TestRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0})
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	r.ReadBits(5)
	if r.Remaining() != 11 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xFFFF, 16)
	w.Reset()
	if w.BitLen() != 0 || len(w.Bytes()) != 0 {
		t.Fatal("Reset did not clear writer")
	}
	w.WriteBits(3, 2)
	if w.BitLen() != 2 {
		t.Fatalf("BitLen after reset = %d", w.BitLen())
	}
}

// refWriter is the bit-at-a-time writer this package shipped before the
// accumulator: the definition of the byte layout. Writer must produce
// its bytes exactly.
type refWriter struct {
	buf  []byte
	bitN uint8 // bits already used in the last byte (0..7)
}

func (w *refWriter) writeBit(b uint) {
	if w.bitN == 0 {
		w.buf = append(w.buf, 0)
	}
	if b&1 != 0 {
		w.buf[len(w.buf)-1] |= 1 << (7 - w.bitN)
	}
	w.bitN = (w.bitN + 1) & 7
}

func (w *refWriter) writeBits(v uint64, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.writeBit(uint(v >> uint(i)))
	}
}

func (w *refWriter) align() { w.bitN = 0 }

func (w *refWriter) bitLen() int {
	n := len(w.buf) * 8
	if w.bitN != 0 {
		n -= 8 - int(w.bitN)
	}
	return n
}

// Property: any sequence of writes — bit fields of every width with
// their high bits left dirty, single bits, byte runs, alignments, and
// Bytes() peeked at mid-stream — produces the reference writer's bytes
// and bit count, and reads back identically through the matching reads.
func TestQuickRoundTrip(t *testing.T) {
	type op struct {
		kind  int // 0 bits, 1 bit, 2 bytes, 3 align
		v     uint64
		n     uint
		bytes []byte
	}
	f := func(vals []uint64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]op, len(vals))
		w := NewWriter(len(vals))
		var ref refWriter
		for i, v := range vals {
			o := op{kind: 0, v: v, n: uint(rng.Intn(65))}
			switch rng.Intn(10) {
			case 0:
				o.kind, o.n = 1, 1
			case 1:
				o.kind, o.bytes = 2, make([]byte, rng.Intn(20))
				rng.Read(o.bytes)
			case 2:
				o.kind = 3
			}
			ops[i] = o
			switch o.kind {
			case 0:
				w.WriteBits(o.v, o.n)
				ref.writeBits(o.v, o.n)
			case 1:
				w.WriteBit(uint(o.v))
				ref.writeBit(uint(o.v))
			case 2:
				w.WriteBytes(o.bytes)
				for _, b := range o.bytes {
					ref.writeBits(uint64(b), 8)
				}
			case 3:
				w.Align()
				ref.align()
			}
			if w.BitLen() != ref.bitLen() {
				t.Logf("op %d: BitLen %d, reference %d", i, w.BitLen(), ref.bitLen())
				return false
			}
			if rng.Intn(8) == 0 && !bytes.Equal(w.Bytes(), ref.buf) {
				t.Logf("op %d: bytes %x, reference %x", i, w.Bytes(), ref.buf)
				return false
			}
		}
		if !bytes.Equal(w.Bytes(), ref.buf) {
			t.Logf("bytes %x, reference %x", w.Bytes(), ref.buf)
			return false
		}
		r := NewReader(w.Bytes())
		for i, o := range ops {
			switch o.kind {
			case 0, 1:
				want := o.v
				if o.n < 64 {
					want &= 1<<o.n - 1
				}
				var got uint64
				var err error
				if o.kind == 1 {
					var b uint
					b, err = r.ReadBit()
					got = uint64(b)
				} else {
					got, err = r.ReadBits(o.n)
				}
				if err != nil || got != want {
					t.Logf("op %d: read %d bits: %x, %v; want %x", i, o.n, got, err, want)
					return false
				}
			case 2:
				got := make([]byte, len(o.bytes))
				if err := r.ReadBytes(got); err != nil || !bytes.Equal(got, o.bytes) {
					t.Logf("op %d: read bytes %x, %v; want %x", i, got, err, o.bytes)
					return false
				}
			case 3:
				r.Align()
			}
		}
		// What is left is the last byte's zero padding, and nothing after.
		if rem := r.Remaining(); rem >= 8 {
			t.Logf("%d bits left after the last read", rem)
			return false
		}
		if _, err := r.ReadBits(8); err != ErrShortBuffer {
			t.Logf("read past the end: %v", err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i&8191 == 0 {
			w.Reset()
		}
		w.WriteBits(uint64(i), 23)
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter(1 << 16)
	for i := 0; i < 8192; i++ {
		w.WriteBits(uint64(i), 23)
	}
	buf := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	r := NewReader(buf)
	for i := 0; i < b.N; i++ {
		if r.Remaining() < 23 {
			r = NewReader(buf)
		}
		r.ReadBits(23)
	}
}

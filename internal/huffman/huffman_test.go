package huffman

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"qcsim/internal/bitio"
)

func roundTrip(t *testing.T, in []uint16) {
	t.Helper()
	enc := Encode(in)
	out, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(in) == 0 && len(out) == 0 {
		return
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: in %v out %v", in, out)
	}
}

func TestRoundTripEmpty(t *testing.T)  { roundTrip(t, nil) }
func TestRoundTripSingle(t *testing.T) { roundTrip(t, []uint16{42}) }

func TestRoundTripRepeated(t *testing.T) {
	in := make([]uint16, 1000)
	for i := range in {
		in[i] = 7
	}
	roundTrip(t, in)
}

func TestRoundTripTwoSymbols(t *testing.T) {
	in := []uint16{1, 2, 1, 1, 2, 1, 1, 1, 2}
	roundTrip(t, in)
}

func TestRoundTripSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := make([]uint16, 4096)
	for i := range in {
		// Geometric-ish distribution typical of quantization tokens.
		v := 0
		for v < 200 && rng.Float64() < 0.7 {
			v++
		}
		in[i] = uint16(v)
	}
	roundTrip(t, in)
}

func TestRoundTripUniformWide(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := make([]uint16, 2048)
	for i := range in {
		in[i] = uint16(rng.Intn(65536))
	}
	roundTrip(t, in)
}

func TestCompressionBeatsRawOnSkewed(t *testing.T) {
	in := make([]uint16, 1<<14)
	rng := rand.New(rand.NewSource(3))
	for i := range in {
		if rng.Float64() < 0.95 {
			in[i] = 0
		} else {
			in[i] = uint16(rng.Intn(16))
		}
	}
	enc := Encode(in)
	raw := len(in) * 2
	if len(enc) >= raw/3 {
		t.Fatalf("skewed stream compressed to %d bytes, raw %d — expected ≥3x reduction", len(enc), raw)
	}
}

// forgedCount is a well-formed header — nsym symbols, a table of the one
// symbol 0 at code length 1 — followed by payload bytes: a dozen bytes
// that used to make Decode allocate 2·nsym before reading a single code.
func forgedCount(nsym uint32, payload ...byte) []byte {
	w := bitio.NewWriter(16)
	w.WriteBits(uint64(nsym), 32)
	w.WriteBits(1, 17)
	w.WriteBits(0, 16)
	w.WriteBits(1, 6)
	w.WriteBytes(payload)
	return w.Bytes()
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		{},                             // no header
		{0, 0, 0, 1},                   // symbol count 1 but no table
		{0xFF, 0xFF},                   // truncated header
		forgedCount(0xFFFFFFFF),        // 4 G symbols, not one payload bit
		forgedCount(1<<20, 0, 0, 0, 0), // 1 M symbols in 32 payload bits (+ padding)
	}
	for i, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(c)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("case %d: corrupt input gave %v, want ErrCorrupt", i, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Fatalf("case %d: refusing %d bytes allocated %d", i, len(c), got)
		}
	}
	// The bound is the payload's bit count, not a byte more: the same
	// header decodes when the payload holds its symbols.
	if out, err := Decode(forgedCount(32, 0, 0, 0, 0)); err != nil || len(out) != 32 {
		t.Fatalf("32 one-bit symbols in 4 payload bytes: %d symbols, %v", len(out), err)
	}
}

func TestDecodeTruncatedPayload(t *testing.T) {
	in := []uint16{1, 2, 3, 4, 5, 6, 7, 8}
	enc := Encode(in)
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		// Truncating one byte may still decode if padding covered it;
		// cut harder.
		if _, err2 := Decode(enc[:len(enc)/2]); err2 == nil {
			t.Fatal("heavily truncated payload decoded without error")
		}
	}
}

func TestCanonicalDeterminism(t *testing.T) {
	in := []uint16{5, 5, 3, 3, 3, 9, 1, 1, 1, 1}
	a := Encode(in)
	b := Encode(in)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Encode is not deterministic")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(in []uint16) bool {
		enc := Encode(in)
		out, err := Decode(enc)
		if err != nil {
			return false
		}
		if len(in) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	in := make([]uint16, 1<<14)
	for i := range in {
		in[i] = uint16(rng.Intn(64))
	}
	b.SetBytes(int64(len(in) * 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(in)
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	in := make([]uint16, 1<<14)
	for i := range in {
		in[i] = uint16(rng.Intn(64))
	}
	enc := Encode(in)
	b.SetBytes(int64(len(in) * 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

package compress_test

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"qcsim/internal/compress"
	"qcsim/internal/compress/codectest"
	"qcsim/internal/compress/xortrunc"
)

// stdFlate is compress.Flate's decode side as it was while compress/flate
// did the work — a flate reader re-armed through flate.Resetter over a
// bytes.Reader, a growing read loop under a ceiling — kept as the
// reference the repository's own decoder is held to, and as the other
// side of BenchmarkInflate.
type stdFlate struct {
	r   io.ReadCloser
	in  bytes.Reader
	buf []byte
}

func (f *stdFlate) reader(src []byte) io.Reader {
	f.in.Reset(src)
	if f.r == nil {
		f.r = flate.NewReader(&f.in)
	} else if err := f.r.(flate.Resetter).Reset(&f.in, nil); err != nil {
		panic(err)
	}
	return f.r
}

func (f *stdFlate) Inflate(src []byte, limit int) ([]byte, error) {
	r := f.reader(src)
	buf := f.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, max(len(buf), 512))
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), limit+1)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return nil, fmt.Errorf("inflates past %d bytes", limit)
		}
		if err == io.EOF {
			f.buf = buf
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

func deflate(tb testing.TB, data []byte, level int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		tb.Fatal(err)
	}
	w.Write(data)
	w.Close()
	return buf.Bytes()
}

// checkStream holds compress.Flate to compress/flate on one arbitrary
// byte string read as a DEFLATE stream. flate defines what the stream
// decodes to before it ends or fails; InflateInto must then succeed,
// with those bytes, for every size up to that and fail one past it, and
// Inflate must succeed exactly when the stream is whole and within the
// limit. Nothing may be written outside dst.
func checkStream(t *testing.T, f *compress.Flate, stream []byte, limit int) {
	t.Helper()
	const most = 1 << 20 // how far to follow a stream that keeps producing
	var std stdFlate
	want, err := io.ReadAll(io.LimitReader(std.reader(stream), most+1))
	capped := len(want) > most
	whole := err == nil && !capped

	sizes := []int{0, len(want) / 2, len(want) - 1, len(want)}
	if !capped {
		sizes = append(sizes, len(want)+1)
	}
	for _, k := range sizes {
		if k < 0 {
			continue
		}
		guarded := bytes.Repeat([]byte{0xA5}, k+64)
		err := f.InflateInto(guarded[:k], stream)
		switch {
		case k <= len(want) && err != nil:
			t.Fatalf("InflateInto(%d bytes) of a stream flate reads %d bytes of: %v", k, len(want), err)
		case k <= len(want) && !bytes.Equal(guarded[:k], want[:k]):
			t.Fatalf("InflateInto(%d bytes) decodes other bytes than flate", k)
		case k > len(want) && !errors.Is(err, compress.ErrCorrupt):
			t.Fatalf("InflateInto(%d bytes) of a stream flate reads %d bytes of: %v, want ErrCorrupt", k, len(want), err)
		}
		if !bytes.Equal(guarded[k:], bytes.Repeat([]byte{0xA5}, 64)) {
			t.Fatalf("InflateInto(%d bytes) wrote past dst", k)
		}
	}
	for _, lim := range []int{limit, len(want), max(len(want)-1, 0)} {
		if capped && lim >= len(want) {
			continue // flate was not followed far enough to say
		}
		got, err := f.Inflate(stream, lim)
		switch {
		case whole && len(want) <= lim:
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("Inflate(limit %d) of a whole %d-byte stream: %d bytes, %v", lim, len(want), len(got), err)
			}
		case !errors.Is(err, compress.ErrCorrupt):
			t.Fatalf("Inflate(limit %d): %v; flate reads %d bytes (whole stream: %v): want ErrCorrupt", lim, err, len(want), whole)
		}
		if len(got) > lim {
			t.Fatalf("Inflate(limit %d) returned %d bytes", lim, len(got))
		}
	}
}

// FuzzInflateMatchesStdlib is the differential test for the one-shot
// decoder behind compress.Flate. The input is used twice: deflated by
// compress/flate at the fuzzed level (−2…9) it must come back equal, and
// read as a stream itself it must get compress/flate's verdict, byte
// count and bytes (checkStream).
func FuzzInflateMatchesStdlib(f *testing.F) {
	rng := rand.New(rand.NewSource(19))
	text := bytes.Repeat([]byte("amplitude, phase; "), 40)
	noise := make([]byte, 3000)
	rng.Read(noise)
	mixed := append(append(append([]byte(nil), text...), noise...), make([]byte, 2000)...)
	for level := -2; level <= 9; level++ {
		f.Add(mixed, int8(level), uint16(100))
	}
	f.Add([]byte{}, int8(1), uint16(0))
	// Long enough for several blocks (compress/flate starts a new one
	// every 64 KiB of input at most). Seeds are otherwise kept short: the
	// fuzzing engine minimizes what it finds a byte at a time.
	f.Add(bytes.Repeat(mixed, 30), int8(1), uint16(100))
	// As streams: a stored block, a fixed-Huffman block, the dynamic
	// blocks of levels −2, 1 and 9, each also cut at every byte — where a
	// bit-at-a-time reader runs dry is part of the contract — and
	// codectest's 64 MiB of zeros.
	for _, s := range [][]byte{
		deflate(f, text[:60], flate.NoCompression),
		deflate(f, []byte("abcabcabcabc, abc"), flate.BestSpeed),
		deflate(f, mixed[:900], flate.HuffmanOnly),
		deflate(f, mixed[:900], flate.BestSpeed),
		deflate(f, mixed[:900], flate.BestCompression),
	} {
		for cut := 0; cut <= len(s); cut++ {
			f.Add(s[:cut], int8(1), uint16(len(mixed)))
		}
	}
	f.Add(deflate(f, make([]byte, 64<<20), flate.BestSpeed), int8(-2), uint16(8192))

	f.Fuzz(func(t *testing.T, data []byte, level int8, limit uint16) {
		var own compress.Flate
		lvl := int(level)%12 - 2
		if lvl < -2 {
			lvl += 12
		}
		stream := deflate(t, data, lvl)
		got, err := own.Inflate(stream, len(data))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("level %d: %d bytes came back as %d, %v", lvl, len(data), len(got), err)
		}
		into := make([]byte, len(data))
		if err := own.InflateInto(into, stream); err != nil || !bytes.Equal(into, data) {
			t.Fatalf("level %d: InflateInto: %v", lvl, err)
		}
		checkStream(t, &own, stream, int(limit))
		checkStream(t, &own, data, int(limit))
	})
}

// lsbWriter packs DEFLATE's bit order: fields from the low bit up,
// Huffman codes from their most significant bit.
type lsbWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *lsbWriter) bits(v uint64, k uint) {
	w.acc |= v << w.n
	for w.n += k; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
}

func (w *lsbWriter) code(c uint16, l uint8) {
	w.bits(uint64(bits.Reverse16(c)>>(16-l)), uint(l))
}

// canonical assigns RFC 1951 §3.2.2 codes to lengths.
func canonical(lens []uint8) []uint16 {
	var count, next [17]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l <= 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint16, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// randomCode gives used of n symbols the lengths of a random complete
// prefix code no deeper than 15 (one symbol: the single one-bit code),
// then, one time in eight, spoils one length so that the code is
// over-subscribed or incomplete.
func randomCode(rng *rand.Rand, n, used int) []uint8 {
	lens := make([]uint8, n)
	if used == 0 {
		return lens
	}
	leaves := []uint8{1, 1}[:min(used, 2)]
	for len(leaves) < used {
		i := rng.Intn(len(leaves))
		if leaves[i] == 15 {
			continue
		}
		leaves[i]++
		leaves = append(leaves, leaves[i])
	}
	for i, s := range rng.Perm(n)[:len(leaves)] {
		lens[s] = leaves[i]
	}
	if rng.Intn(8) == 0 {
		lens[rng.Intn(n)] = uint8(rng.Intn(16))
	}
	return lens
}

// randomDynamicStream writes one to three blocks of type 2 with random
// codes — long ones included, which take the decoder's sub-tables — each
// followed by random symbols of its own code: literals, matches at
// distances that are mostly but not always inside what was written,
// unassigned symbols where the code has them, and usually an end of
// block. The stream is then sometimes cut short or followed by noise.
func randomDynamicStream(rng *rand.Rand) []byte {
	// The code-length code: thirteen 4-bit and six 5-bit codes, complete.
	clLens := make([]uint8, 19)
	for s := range clLens {
		clLens[s] = 4 + uint8(s/13)
	}
	clCodes := canonical(clLens)
	clOrder := []int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

	var w lsbWriter
	blocks := 1 + rng.Intn(3)
	for blk := 0; blk < blocks; blk++ {
		nlit, ndist := 257+rng.Intn(30), 1+rng.Intn(30)
		litLens := randomCode(rng, nlit, 1+rng.Intn(nlit))
		if rng.Intn(4) != 0 && litLens[256] == 0 {
			litLens[256], litLens[rng.Intn(256)] = litLens[rng.Intn(256)], 0 // make room for an end of block, usually
		}
		distLens := randomCode(rng, ndist, rng.Intn(ndist+1))
		final := uint64(0)
		if blk == blocks-1 && rng.Intn(8) != 0 {
			final = 1
		}
		w.bits(final|2<<1, 3)
		w.bits(uint64(nlit-257), 5)
		w.bits(uint64(ndist-1), 5)
		w.bits(19-4, 4)
		for _, s := range clOrder {
			w.bits(uint64(clLens[s]), 3)
		}
		all := append(append([]uint8(nil), litLens...), distLens...)
		for i := 0; i < len(all); {
			run := 1
			for i+run < len(all) && all[i+run] == all[i] {
				run++
			}
			switch {
			case all[i] == 0 && run >= 11 && rng.Intn(2) == 0:
				run = min(run, 138)
				w.code(clCodes[18], clLens[18])
				w.bits(uint64(run-11), 7)
			case all[i] == 0 && run >= 3 && rng.Intn(2) == 0:
				run = min(run, 10)
				w.code(clCodes[17], clLens[17])
				w.bits(uint64(run-3), 3)
			case i > 0 && all[i] == all[i-1] && run >= 3 && rng.Intn(2) == 0:
				run = min(run, 6)
				w.code(clCodes[16], clLens[16])
				w.bits(uint64(run-3), 2)
			default:
				run = 1
				w.code(clCodes[all[i]], clLens[all[i]])
			}
			i += run
		}

		litCodes, distCodes := canonical(litLens), canonical(distLens)
		var lits, dists []int
		for s, l := range litLens {
			if l != 0 && s != 256 {
				lits = append(lits, s)
			}
		}
		for s, l := range distLens {
			if l != 0 {
				dists = append(dists, s)
			}
		}
		for n := rng.Intn(600); n > 0 && len(lits) > 0; n-- {
			s := lits[rng.Intn(len(lits))]
			w.code(litCodes[s], litLens[s])
			if s < 257 {
				continue
			}
			if s >= 265 && s < 285 {
				w.bits(rng.Uint64()&(1<<uint((s-261)/4)-1), uint((s-261)/4)) // the length's extra bits
			}
			if len(dists) == 0 {
				break
			}
			d := dists[rng.Intn(min(len(dists), 1+rng.Intn(12)))] // near distances mostly
			w.code(distCodes[d], distLens[d])
			w.bits(rng.Uint64()&(1<<uint(max(0, (d-2)/2))-1), uint(max(0, (d-2)/2)))
		}
		if litLens[256] != 0 && rng.Intn(8) != 0 {
			w.code(litCodes[256], litLens[256])
		}
	}
	w.bits(0, 7)
	stream := w.buf
	switch rng.Intn(4) {
	case 0:
		stream = stream[:rng.Intn(len(stream)+1)]
	case 1:
		noise := make([]byte, rng.Intn(40))
		rng.Read(noise)
		stream = append(stream, noise...)
	}
	return stream
}

// TestInflateRandomCodes aims checkStream at what fuzzing from valid
// seeds reaches slowly: blocks whose codes are arbitrary — deep, lopsided,
// single-code, empty, over-subscribed, incomplete — decoding arbitrary
// symbol sequences, cut anywhere. A third of the streams must decode
// past their first block's header for the test to mean anything.
func TestInflateRandomCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var own compress.Flate
	var std stdFlate
	productive := 0
	const trials = 4000
	var stream []byte
	defer func() {
		if t.Failed() {
			t.Logf("the stream: %x", stream)
		}
	}()
	for trial := 0; trial < trials; trial++ {
		stream = randomDynamicStream(rng)
		if got, _ := io.ReadAll(std.reader(stream)); len(got) > 0 {
			productive++
		}
		checkStream(t, &own, stream, 1<<16)
	}
	t.Logf("%d of %d streams decode to something", productive, trials)
	if productive < trials/3 {
		t.Errorf("only %d of %d random streams decode to anything", productive, trials)
	}
}

// BenchmarkInflate compares the repository's decoder with compress/flate
// (reader reused, as compress.Flate reused it) on the streams a
// budgeted run inflates: xor-c's pre-DEFLATE payloads of a random-phase
// and a QFT-like 4096-amplitude block at each level of the ladder. MB/s
// count inflated bytes.
func BenchmarkInflate(b *testing.B) {
	for _, p := range codectest.LossyPayloads(b, xortrunc.New(), 19) {
		stream := p.Blob[compress.HeaderSize+1:]
		limit := 32 * p.Count
		var own compress.Flate
		var std stdFlate
		want, err := std.Inflate(stream, limit)
		if err != nil {
			b.Fatal(err)
		}
		want = bytes.Clone(want)
		b.Run(p.Name+"/own", func(b *testing.B) {
			b.SetBytes(int64(len(want)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got, err := own.Inflate(stream, limit); err != nil || len(got) != len(want) {
					b.Fatal(len(got), err)
				}
			}
		})
		b.Run(p.Name+"/stdlib", func(b *testing.B) {
			b.SetBytes(int64(len(want)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got, err := std.Inflate(stream, limit); err != nil || len(got) != len(want) {
					b.Fatal(len(got), err)
				}
			}
		})
	}
}

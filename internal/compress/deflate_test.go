package compress_test

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"qcsim/internal/compress"
	"qcsim/internal/compress/codectest"
	"qcsim/internal/compress/fpziplike"
	"qcsim/internal/compress/szlike"
	"qcsim/internal/compress/xortrunc"
)

// stdDeflater is compress.Flate's encode side as it was while
// compress/flate did the work — a BestSpeed writer reset onto a reused
// buffer, one Write, a Close — kept as the reference the repository's own
// encoder is held to byte for byte, and as the other side of
// BenchmarkDeflate.
type stdDeflater struct {
	w   *flate.Writer
	out bytes.Buffer
}

func (s *stdDeflater) Deflate(src []byte) []byte {
	s.out.Reset()
	if s.w == nil {
		s.w, _ = flate.NewWriter(&s.out, flate.BestSpeed)
	} else {
		s.w.Reset(&s.out)
	}
	s.w.Write(src)
	s.w.Close()
	return s.out.Bytes()
}

type deflateCase struct {
	name string
	data []byte
}

// lossyStreams are the pre-DEFLATE payloads of every codec with a DEFLATE
// stage, on codectest's lossy blocks at each level of the ladder: the
// stream behind the header (and xortrunc's flag byte), inflated.
func lossyStreams(tb testing.TB) []deflateCase {
	tb.Helper()
	var std stdFlate
	var out []deflateCase
	for _, c := range []struct {
		codec compress.Codec
		skip  int
	}{
		{xortrunc.New(), 1}, {xortrunc.NewShuffled(), 1},
		{szlike.NewA(), 0}, {szlike.NewB(), 0}, {fpziplike.New(), 0},
	} {
		for _, p := range codectest.LossyPayloads(tb, c.codec, 19) {
			pre, err := std.Inflate(p.Blob[compress.HeaderSize+c.skip:], 64*p.Count)
			if err != nil {
				tb.Fatalf("%s %s: %v", c.codec.Name(), p.Name, err)
			}
			out = append(out, deflateCase{c.codec.Name() + "/" + p.Name, bytes.Clone(pre)})
		}
	}
	return out
}

// losslessStreams are what the lossless codec deflates, on 8 192-word
// blocks of every conformance class: the raw words, their byte shuffle,
// the 4 KiB probe (sixteen 32-word runs spread over the block), and —
// for blocks of ≤ 256 distinct words — the 1-byte dictionary indices.
func losslessStreams() []deflateCase {
	var out []deflateCase
	for _, ds := range append(codectest.Datasets(8192, 7), codectest.LosslessClasses(8192, 7)...) {
		n := len(ds.Data)
		raw := make([]byte, 8*n)
		compress.PutFloats(raw, ds.Data)
		shuffled := make([]byte, len(raw))
		compress.ByteShuffle(shuffled, raw)
		probe := make([]byte, 0, 4096)
		for j := 0; j < 16; j++ {
			off := j * (n - 32) / 15
			probe = append(probe, raw[8*off:8*(off+32)]...)
		}
		out = append(out,
			deflateCase{"lossless/raw/" + ds.Name, raw},
			deflateCase{"lossless/shuffled/" + ds.Name, shuffled},
			deflateCase{"lossless/probe/" + ds.Name, probe})
		if idx := dictIndices(ds.Data); idx != nil {
			out = append(out, deflateCase{"lossless/index/" + ds.Name, idx})
		}
	}
	return out
}

// dictIndices numbers src's distinct words in first-occurrence order, or
// returns nil past 256 of them.
func dictIndices(src []float64) []byte {
	seen := map[uint64]byte{}
	idx := make([]byte, len(src))
	for i, v := range src {
		w := math.Float64bits(v)
		k, ok := seen[w]
		if !ok {
			if len(seen) == 256 {
				return nil
			}
			k = byte(len(seen))
			seen[w] = k
		}
		idx[i] = k
	}
	return idx
}

// mixedBytes is text, noise and zeros in turn — matches, literals and
// long runs — for n bytes.
func mixedBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	text := []byte("amplitude, phase; fidelity ≥ Π(1−δ); ")
	out := make([]byte, 0, n+4096)
	for len(out) < n {
		switch rng.Intn(3) {
		case 0:
			for k := rng.Intn(40); k >= 0; k-- {
				out = append(out, text...)
			}
		case 1:
			noise := make([]byte, rng.Intn(3000))
			rng.Read(noise)
			out = append(out, noise...)
		default:
			out = append(out, make([]byte, rng.Intn(2000))...)
		}
	}
	return out[:n]
}

// tenthRepeated is 5 000 random bytes followed by their first 500: the
// matcher removes 8.7 % of the tokens, between the 1/16 that makes a
// window dynamic rather than Huffman-only and twice that.
func tenthRepeated() []byte {
	rng := rand.New(rand.NewSource(1))
	out := make([]byte, 5000)
	rng.Read(out)
	return append(out, out[:500]...)
}

// edgeCases are the inputs whose shape, not content, is the question:
// lengths around the stored (≤ 16), Huffman-only (< 128) and window
// (65 535) boundaries; 200 KB whose matches reach back across window
// boundaries; all zeros; random bytes.
func edgeCases() []deflateCase {
	var out []deflateCase
	mixed := mixedBytes(131072, 3)
	for _, n := range []int{0, 1, 16, 17, 127, 128, 129, 65534, 65535, 65536, 65537, 131070, 131071, 131072} {
		out = append(out, deflateCase{fmt.Sprintf("mixed/%d", n), mixed[:n]})
	}
	// A random 24 KiB period, a few bytes of every copy changed: every
	// window starts inside a match that begins in the one before.
	rng := rand.New(rand.NewSource(5))
	period := make([]byte, 24<<10)
	rng.Read(period)
	var cross []byte
	for len(cross) < 200_000 {
		cross = append(cross, period...)
		for k := 0; k < 8; k++ {
			cross[len(cross)-1-rng.Intn(len(period))] ^= byte(1 + rng.Intn(255))
		}
	}
	random := make([]byte, 150_000)
	rng.Read(random)
	return append(out,
		deflateCase{"cross-window/200000", cross[:200_000]},
		deflateCase{"tenth-repeated/5500", tenthRepeated()},
		deflateCase{"zeros/300000", make([]byte, 300_000)},
		deflateCase{"random/150000", random})
}

func checkDeflate(t *testing.T, f *compress.Flate, name string, data []byte) {
	t.Helper()
	var std stdDeflater
	got, want := f.Deflate(data), std.Deflate(data)
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Errorf("%s (%d bytes): %d-byte stream, compress/flate's is %d; first difference at byte %d", name, len(data), len(got), len(want), i)
	}
}

// TestDeflateMatchesStdlib holds the repository's DEFLATE writer to
// compress/flate's BestSpeed writer, byte for byte, on everything the
// codecs deflate and on the boundary cases of the format: from a fresh
// Flate, from one that has compressed every other case first (forwards,
// then backwards), and from one whose table offsets are about to wrap —
// at the start of the call, or at any of its first windows.
func TestDeflateMatchesStdlib(t *testing.T) {
	cases := append(append(lossyStreams(t), losslessStreams()...), edgeCases()...)
	var pooled compress.Flate
	for _, c := range cases {
		var fresh compress.Flate
		checkDeflate(t, &fresh, c.name, c.data)
		checkDeflate(t, &pooled, c.name+" (pooled)", c.data)
	}
	for i := len(cases) - 1; i >= 0; i-- {
		checkDeflate(t, &pooled, cases[i].name+" (pooled, backwards)", cases[i].data)
	}

	for _, c := range edgeCases() {
		if len(c.data) < 2*65535 {
			continue
		}
		// A call starts by moving the offsets a match's reach (32 KiB) on,
		// and each window the matcher runs on moves them its length: these
		// put the wrap at the call's start, or at its second, third or
		// fourth window where there is one of at least 128 bytes.
		for k := 0; k <= 3 && len(c.data) >= k*65535+128; k++ {
			for _, slack := range []int32{0, 1, 65535 / 2} {
				var f compress.Flate
				f.Deflate(c.data) // a table full of entries to rebase or drop
				compress.SetDeflateCur(&f, compress.DeflateBufferReset-1<<15-int32(k)*65535+slack)
				checkDeflate(t, &f, fmt.Sprintf("%s (wrap at window %d%+d)", c.name, k, slack), c.data)
				if cur := compress.DeflateCur(&f); cur >= compress.DeflateBufferReset/2 {
					t.Fatalf("%s: the offsets did not wrap (cur %d)", c.name, cur)
				}
				checkDeflate(t, &f, c.name+" (after the wrap)", c.data)
			}
		}
	}
}

// TestDeflateAllocations: once a Flate has held a stream as large as the
// next one, Deflate allocates nothing.
func TestDeflateAllocations(t *testing.T) {
	var f compress.Flate
	cases := edgeCases()
	for _, c := range cases {
		f.Deflate(c.data)
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(5, func() { f.Deflate(c.data) }); n != 0 {
			t.Errorf("%s: Deflate allocates %v times once warm, want 0", c.name, n)
		}
	}
}

var deflatePool = sync.Pool{New: func() any { return new(compress.Flate) }}

// FuzzDeflateMatchesStdlib: any input encodes to compress/flate's
// BestSpeed bytes, on a Flate that has encoded other inputs before, and
// the stream inflates back to the input.
func FuzzDeflateMatchesStdlib(f *testing.F) {
	mixed := mixedBytes(4000, 9)
	f.Add([]byte{})
	f.Add([]byte("abcabcabcabc, abc"))
	f.Add(mixed[:17])
	f.Add(mixed[:200])
	f.Add(mixed)
	f.Add(bytes.Repeat(mixed[:300], 5))
	f.Add(make([]byte, 1000))
	f.Add(tenthRepeated())
	f.Fuzz(func(t *testing.T, data []byte) {
		own := deflatePool.Get().(*compress.Flate)
		defer deflatePool.Put(own)
		var std stdDeflater
		got := own.Deflate(data)
		if want := std.Deflate(data); !bytes.Equal(got, want) {
			t.Fatalf("%d bytes: a %d-byte stream, compress/flate's is %d", len(data), len(got), len(want))
		}
		back, err := own.Inflate(got, len(data))
		if err != nil || !bytes.Equal(back, data) {
			t.Fatalf("%d bytes came back as %d: %v", len(data), len(back), err)
		}
	})
}

// BenchmarkDeflate compares the repository's writer with compress/flate's
// (reset and reused, as compress.Flate reused it) on the inputs the
// codecs deflate: xor-c's pre-DEFLATE payloads of a random-phase and a
// QFT-like block at each level of the ladder, a 64 KiB block of lossless
// words, the lossless probe's 4 KiB, and an 8 KiB dictionary index
// stream. MB/s count input bytes.
func BenchmarkDeflate(b *testing.B) {
	var classes []deflateCase
	for _, c := range lossyStreams(b) {
		if strings.HasPrefix(c.name, "xor-c/") {
			classes = append(classes, c)
		}
	}
	for _, c := range losslessStreams() {
		switch c.name {
		case "lossless/raw/half-zero-half-random", "lossless/probe/random-words", "lossless/index/40-valued":
			classes = append(classes, c)
		}
	}
	for _, c := range classes {
		var own compress.Flate
		var std stdDeflater
		b.Run(c.name+"/own", func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				own.Deflate(c.data)
			}
		})
		b.Run(c.name+"/stdlib", func(b *testing.B) {
			b.SetBytes(int64(len(c.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				std.Deflate(c.data)
			}
		})
	}
}

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
// blocks of every conformance class and on a QFT-state block: the raw
// words, their byte shuffle, the 4 KiB probe (sixteen 32-word runs
// spread over the block), and — for blocks of ≤ 256 distinct words —
// the 1-byte dictionary indices.
func losslessStreams() []deflateCase {
	var out []deflateCase
	sets := append(codectest.Datasets(8192, 7), codectest.LosslessClasses(8192, 7)...)
	for _, ds := range append(sets, codectest.Dataset{Name: "qft-state", Data: qftState(8192)}) {
		raw := make([]byte, 8*len(ds.Data))
		compress.PutFloats(raw, ds.Data)
		shuffled := make([]byte, len(raw))
		compress.ByteShuffle(shuffled, raw)
		out = append(out,
			deflateCase{"lossless/raw/" + ds.Name, raw},
			deflateCase{"lossless/shuffled/" + ds.Name, shuffled},
			deflateCase{"lossless/probe/" + ds.Name, probeBytes(raw)})
		if idx := dictIndices(ds.Data); idx != nil {
			out = append(out, deflateCase{"lossless/index/" + ds.Name, idx})
		}
	}
	return out
}

// probeBytes is the lossless codec's probe of the words raw holds:
// sixteen 32-word runs spread evenly over them.
func probeBytes(raw []byte) []byte {
	n := len(raw) / 8
	probe := make([]byte, 0, 4096)
	for j := 0; j < 16; j++ {
		off := j * (n - 32) / 15
		probe = append(probe, raw[8*off:8*(off+32)]...)
	}
	return probe
}

// qftState is the first n/2 amplitudes, interleaved real and imaginary,
// of a 17-qubit QFT of a basis state: every word of one magnitude under
// a phase that turns evenly, the block a QFT run's probe deflates.
func qftState(n int) []float64 {
	const qubits, x = 17, 0b1101_0000_1011_0101
	out := make([]float64, n)
	for k := range n / 2 {
		phase := 2 * math.Pi * float64(x*k%(1<<qubits)) / (1 << qubits)
		out[2*k] = math.Cos(phase) / math.Sqrt(1<<qubits)
		out[2*k+1] = math.Sin(phase) / math.Sqrt(1<<qubits)
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

// huffOnlyCase is a window the writer codes Huffman-only, and how
// huffOnly settles it.
type huffOnlyCase struct {
	deflateCase
	verdict string
}

// Verdicts of huffOnly: stored on the Shannon floor alone; stored once
// the code is built; Huffman-coded.
const (
	floorStored  = "floor-stored"
	sizeStored   = "size-stored"
	huffmanCoded = "huffman-coded"
)

// huffOnlyCases are one 4 KiB window for each way huffOnly ends: random
// bytes, whose entropy alone rules Huffman out; the probe of a
// 1 024-amplitude QFT-state block, whose entropy is within 2 % of its
// code and whose code, with its header, still saves less than 1/16;
// and random bytes of 160 values, whose code saves just over 1/16 —
// close enough to the line that a floor compared with any looser rule
// would store it.
func huffOnlyCases() []huffOnlyCase {
	rng := rand.New(rand.NewSource(11))
	random := make([]byte, 4096)
	rng.Read(random)
	valued := make([]byte, 4096)
	for i := range valued {
		valued[i] = byte(rng.Intn(160))
	}
	raw := make([]byte, 8*2048)
	compress.PutFloats(raw, qftState(2048))
	return []huffOnlyCase{
		{deflateCase{"huff-only/random/4096", random}, floorStored},
		{deflateCase{"huff-only/qft-state-probe/4096", probeBytes(raw)}, sizeStored},
		{deflateCase{"huff-only/160-valued/4096", valued}, huffmanCoded},
	}
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
	for _, c := range huffOnlyCases() {
		cases = append(cases, c.deflateCase)
	}
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

// TestHuffOnlyVerdicts: each of huffOnlyCases takes the Huffman-only
// path and ends the way it is named for — so that TestDeflateMatchesStdlib
// and the fuzz seeds see the floor fire, the floor miss with the block
// stored all the same, and a Huffman-coded block.
func TestHuffOnlyVerdicts(t *testing.T) {
	for _, c := range huffOnlyCases() {
		huffOnly, floor, size, stored := compress.HuffOnlyBlock(c.data)
		verdict := huffmanCoded
		switch {
		case stored < floor+floor>>4:
			verdict = floorStored
		case stored < size+size>>4:
			verdict = sizeStored
		}
		if !huffOnly || verdict != c.verdict {
			t.Errorf("%s: Huffman-only %v, %s (floor %d, size %d, stored %d bits), want Huffman-only, %s",
				c.name, huffOnly, verdict, floor, size, stored, c.verdict)
		}
	}
}

// TestHuffOnlyFloorIsALowerBound: the Shannon floor huffOnly stores on
// is never above the size it would otherwise compute, on histograms
// that are flat, geometric and Fibonacci (a code the 15-bit limit
// bends), on windows of one and two byte values, and on windows of 17
// to 65 535 bytes.
func TestHuffOnlyFloorIsALowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fromCounts := func(counts []int) []byte {
		var win []byte
		for b, k := range counts {
			win = append(win, bytes.Repeat([]byte{byte(b)}, k)...)
		}
		rng.Shuffle(len(win), func(i, j int) { win[i], win[j] = win[j], win[i] })
		return win
	}
	wins := map[string][]byte{}
	for _, k := range []int{1, 3, 16, 255} {
		flat := make([]int, 256)
		for b := range flat {
			flat[b] = k
		}
		wins[fmt.Sprintf("flat/%d", k)] = fromCounts(flat)
	}
	for _, r := range []float64{0.5, 0.7, 0.9, 0.97} {
		geo := make([]int, 256)
		for b, f := 0, 30000.0; b < len(geo) && f >= 1; b, f = b+1, f*r {
			geo[b] = int(f)
		}
		wins[fmt.Sprintf("geometric/%g", r)] = fromCounts(geo)
	}
	fib := []int{1, 1}
	for sum := 2; ; {
		next := fib[len(fib)-1] + fib[len(fib)-2]
		if sum+next > 65535 {
			break
		}
		fib = append(fib, next)
		sum += next
	}
	wins[fmt.Sprintf("fibonacci/%d", len(fib))] = fromCounts(fib)
	for _, n := range []int{17, 18, 127, 4096, 65535} {
		wins[fmt.Sprintf("one-value/%d", n)] = bytes.Repeat([]byte{'q'}, n)
		wins[fmt.Sprintf("two-values/%d", n)] = fromCounts([]int{'a': n - 1, 'b': 1})
		wins[fmt.Sprintf("two-values-even/%d", n)] = fromCounts([]int{'a': n / 2, 'b': n - n/2})
	}
	mixed := mixedBytes(65535, 17)
	random := make([]byte, 65535)
	rng.Read(random)
	for _, n := range []int{17, 18, 19, 31, 64, 127, 128, 200, 1000, 4095, 4096, 4097, 4098, 10000, 32768, 65534, 65535} {
		wins[fmt.Sprintf("random/%d", n)] = random[:n]
		wins[fmt.Sprintf("mixed/%d", n)] = mixed[:n]
	}
	for _, c := range huffOnlyCases() {
		wins[c.name] = c.data
	}
	for name, win := range wins {
		if _, floor, size, _ := compress.HuffOnlyBlock(win); floor > size {
			t.Errorf("%s (%d bytes): floor %d bits, above the Huffman-only size %d", name, len(win), floor, size)
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
	for _, c := range huffOnlyCases() {
		f.Add(c.data)
	}
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
// words, the lossless probe's 4 KiB of random words (which huffOnly
// stores on its Shannon floor) and of a QFT state (which it stores only
// once the code is built), and an 8 KiB dictionary index stream. MB/s
// count input bytes.
func BenchmarkDeflate(b *testing.B) {
	var classes []deflateCase
	for _, c := range lossyStreams(b) {
		if strings.HasPrefix(c.name, "xor-c/") {
			classes = append(classes, c)
		}
	}
	for _, c := range losslessStreams() {
		switch c.name {
		case "lossless/raw/half-zero-half-random", "lossless/probe/random-words", "lossless/probe/qft-state", "lossless/index/40-valued":
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

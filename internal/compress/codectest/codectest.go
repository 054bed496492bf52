// Package codectest provides shared conformance checks and data
// generators for the compressor packages. Every codec must pass the same
// contract: self-describing payloads, exact reconstruction in lossless
// mode, and error bounds honored pointwise in lossy modes — on smooth,
// spiky, sparse, and adversarial data alike.
package codectest

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"qcsim/internal/compress"
)

// Dataset is a named test input.
type Dataset struct {
	Name string
	Data []float64
}

// Datasets returns the standard conformance inputs of length n
// (n must be even; values mimic interleaved complex amplitudes).
func Datasets(n int, seed int64) []Dataset {
	rng := rand.New(rand.NewSource(seed))
	mk := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	norm := func(xs []float64) []float64 {
		var s float64
		for _, x := range xs {
			s += x * x
		}
		if s == 0 {
			return xs
		}
		s = 1 / math.Sqrt(s)
		for i := range xs {
			xs[i] *= s
		}
		return xs
	}
	return []Dataset{
		{"zeros", mk(func(int) float64 { return 0 })},
		{"constant", mk(func(int) float64 { return 0.125 })},
		{"basis-state", norm(mk(func(i int) float64 {
			if i == 2 {
				return 1
			}
			return 0
		}))},
		{"uniform-superposition", norm(mk(func(i int) float64 {
			if i%2 == 0 {
				return 1
			}
			return 0
		}))},
		{"smooth", mk(func(i int) float64 { return math.Sin(float64(i) / 50) })},
		{"spiky", norm(mk(func(i int) float64 {
			// The paper's Fig. 9: random sign, random magnitude spread
			// over several orders of magnitude.
			v := math.Exp(rng.Float64()*8-12) * math.Pow(-1, float64(rng.Intn(2)))
			return v
		}))},
		{"sparse", norm(mk(func(i int) float64 {
			if rng.Float64() < 0.05 {
				return rng.NormFloat64()
			}
			return 0
		}))},
		{"tiny-and-large", mk(func(i int) float64 {
			switch i % 4 {
			case 0:
				return 1e-300
			case 1:
				return -1e300
			case 2:
				return 1e-12
			default:
				return 3.9921875 // the paper's Fig. 13 worked example
			}
		})},
		{"gaussian", norm(mk(func(i int) float64 { return rng.NormFloat64() }))},
	}
}

// LosslessClasses returns inputs of length n aimed at what a lossless
// stage can observe in a block: how many distinct words it holds (1, 2,
// 40, 256 — and 257, one past a byte-sized index; 1 000, which repeat
// only over distances longer than a small sample), whether it
// compresses at all, whether it does so only in part — the half-zero
// block a prefix probe would misread, and two blocks that are random
// exactly where a probe of four windows spread evenly over the block
// looks (sub-blocks 0, 21, 42 and 63 of 64) and zero elsewhere — and bit
// patterns that compare equal or unequal as floats but not as words
// (±0, NaN payloads).
func LosslessClasses(n int, seed int64) []Dataset {
	rng := rand.New(rand.NewSource(seed))
	mk := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	// valued draws every word from k distinct values, each used at
	// least once when n ≥ k.
	valued := func(k int) []float64 {
		vals := make([]float64, k)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		return mk(func(i int) float64 {
			if i < k {
				return vals[i]
			}
			return vals[rng.Intn(k)]
		})
	}
	// islands is random on the four windows (each n/64 words, with tail
	// more words after it) and zero everywhere else.
	islands := func(tail int) []float64 {
		return mk(func(i int) float64 {
			for j := 0; j < 4; j++ {
				if off := j * (n - n/64) / 3; i >= off && i < off+n/64+tail {
					return rng.NormFloat64()
				}
			}
			return 0
		})
	}
	oddBits := []uint64{
		0, 1 << 63, // +0, −0
		0x7FF8000000000001, 0x7FF8000000000002, 0xFFF8000000000001, // quiet NaNs, three payloads
		0x7FF0000000000001,                     // a signalling NaN
		0x7FF0000000000000, 0xFFF0000000000000, // ±Inf
		1, 0x3FF0000000000000, // the smallest subnormal, 1
	}
	return []Dataset{
		{"one-valued", mk(func(int) float64 { return -0.0078125 })},
		{"two-valued-interleaved", mk(func(i int) float64 { return float64(1-i%2) * 0.0078125 })},
		{"40-valued", valued(40)},
		{"256-valued", valued(256)},
		{"257-valued", valued(257)},
		{"half-zero-half-random", mk(func(i int) float64 {
			if i < n/2 {
				return 0
			}
			return rng.NormFloat64()
		})},
		{"random-words", mk(func(int) float64 { return math.Float64frombits(rng.Uint64()>>2 | 1<<61) })},
		{"signed-zero-nan-mix", mk(func(int) float64 { return math.Float64frombits(oddBits[rng.Intn(len(oddBits))]) })},
		{"four-random-sub-blocks", islands(0)},
		{"four-random-islands", islands(300 * n / 8192)},
		{"1000-valued", valued(1000)},
	}
}

// LossyOptions returns the paper's five error levels for the mode.
func LossyOptions(mode compress.ErrorMode) []compress.Options {
	var opts []compress.Options
	for _, b := range []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5} {
		opts = append(opts, compress.Options{Mode: mode, Bound: b})
	}
	return opts
}

// RoundTrip compresses and decompresses, failing the test on error or
// contract violation.
func RoundTrip(t *testing.T, c compress.Codec, data []float64, opt compress.Options) []float64 {
	t.Helper()
	payload, err := c.Compress(nil, data, opt)
	if err != nil {
		t.Fatalf("%s compress(%v): %v", c.Name(), opt, err)
	}
	out := make([]float64, len(data))
	if err := c.Decompress(out, payload); err != nil {
		t.Fatalf("%s decompress(%v): %v", c.Name(), opt, err)
	}
	if i := compress.CheckBound(data, out, opt); i >= 0 {
		t.Fatalf("%s mode=%v bound=%g: contract violated at %d: %g -> %g",
			c.Name(), opt.Mode, opt.Bound, i, data[i], out[i])
	}
	return out
}

// ConformanceLossless checks bit-exact reconstruction across datasets.
func ConformanceLossless(t *testing.T, c compress.Codec) {
	t.Helper()
	for _, ds := range append(Datasets(2048, 7), LosslessClasses(2048, 7)...) {
		ds := ds
		t.Run("lossless/"+ds.Name, func(t *testing.T) {
			RoundTrip(t, c, ds.Data, compress.Options{Mode: compress.Lossless})
		})
	}
}

// ConformanceLossy checks the error contract across datasets and the
// paper's five bounds.
func ConformanceLossy(t *testing.T, c compress.Codec, mode compress.ErrorMode) {
	t.Helper()
	for _, ds := range Datasets(2048, 11) {
		for _, opt := range LossyOptions(mode) {
			ds, opt := ds, opt
			t.Run(opt.Mode.String()+"/"+ds.Name, func(t *testing.T) {
				o := opt
				if o.Mode == compress.Absolute {
					// The paper sets absolute bounds as a fraction of
					// the block's value range.
					lo, hi := minMax(ds.Data)
					r := hi - lo
					if r == 0 {
						r = 1
					}
					o.Bound = opt.Bound * r
				}
				RoundTrip(t, c, ds.Data, o)
			})
		}
	}
}

// ConformanceEmptyAndSmall checks degenerate sizes.
func ConformanceEmptyAndSmall(t *testing.T, c compress.Codec) {
	t.Helper()
	for _, n := range []int{0, 1, 2, 3, 5, 7} {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i) * 0.25
		}
		RoundTrip(t, c, data, compress.Options{Mode: compress.Lossless})
		if n > 0 {
			RoundTrip(t, c, data, compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3})
		}
	}
}

// ConformanceExactCapacity checks compress.Codec's exact-capacity
// contract: a blob compressed onto nil, or onto a prefix with no room to
// spare, comes back with cap == len — and the prefix in front of it.
// Options the codec refuses are skipped.
func ConformanceExactCapacity(t *testing.T, c compress.Codec) {
	t.Helper()
	opts := append(LossyOptions(compress.PointwiseRelative), LossyOptions(compress.Absolute)[2], compress.Options{})
	blocks := append(LossyBlocks(5), Datasets(512, 5)...)
	for _, ds := range blocks {
		for _, opt := range opts {
			blob, err := c.Compress(nil, ds.Data, opt)
			if err != nil {
				continue
			}
			if cap(blob) != len(blob) {
				t.Errorf("%s %v %g %s: len %d, cap %d", c.Name(), opt.Mode, opt.Bound, ds.Name, len(blob), cap(blob))
			}
			pre, err := c.Compress([]byte{7}, ds.Data, opt)
			if err != nil {
				t.Fatal(err)
			}
			if pre[0] != 7 || !bytes.Equal(pre[1:], blob) || cap(pre) != len(pre) {
				t.Errorf("%s %v %g %s: onto a 1-byte prefix, first byte %d, len %d, cap %d", c.Name(), opt.Mode, opt.Bound, ds.Name, pre[0], len(pre), cap(pre))
			}
		}
	}
}

// ConformanceCorrupt checks that mangled payloads return errors rather
// than panicking or silently succeeding.
func ConformanceCorrupt(t *testing.T, c compress.Codec) {
	t.Helper()
	data := Datasets(512, 3)[5].Data // spiky
	payload, err := c.Compress(nil, data, compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(data))
	if err := c.Decompress(out, payload[:8]); err == nil {
		t.Error("truncated header accepted")
	}
	if err := c.Decompress(make([]float64, len(data)+1), payload); err == nil {
		t.Error("wrong dst length accepted")
	}
	honest := make([]float64, len(data))
	if err := c.Decompress(honest, payload); err != nil {
		t.Fatal(err)
	}
	for _, h := range hostileBlobs(t, payload) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s: panic on %s: %v", c.Name(), h.name, r)
				}
			}()
			err := c.Decompress(out, h.blob)
			if err != nil && !errors.Is(err, compress.ErrCorrupt) {
				t.Errorf("%s: %s: %v, want ErrCorrupt", c.Name(), h.name, err)
			}
			if err != nil || !h.ignorable {
				return
			}
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(honest[i]) {
					t.Errorf("%s: %s decodes, and to different values (first at %d)", c.Name(), h.name, i)
					return
				}
			}
		}()
	}

	// A DEFLATE stream that inflates to 64 MiB, behind this block's
	// valid header (and behind the byte after it, where a codec keeps a
	// flag there), costs no more memory than the header's count can
	// need: a codec that inflates to an unknown size refuses the stream
	// once it has outgrown that (ErrCorrupt), one that inflates into a
	// buffer of the known size stops reading when the buffer is full and
	// may accept what it read. Either way nothing is materialised.
	var bomb compress.Flate
	stream := bomb.Deflate(make([]byte, 64<<20))
	for keep := compress.HeaderSize; keep <= compress.HeaderSize+1; keep++ {
		hostile := append(append([]byte(nil), payload[:keep]...), stream...)
		_ = c.Decompress(out, payload) // pooled buffers at their working size
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.Decompress(out, hostile)
		runtime.ReadMemStats(&after)
		if err != nil && !errors.Is(err, compress.ErrCorrupt) {
			t.Errorf("%s: a 64 MiB stream behind a %d-value header: %v, want ErrCorrupt", c.Name(), len(data), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: a 64 MiB stream behind a %d-value header allocated %d bytes", c.Name(), len(data), grew)
		}
	}
}

// hostile is one blob derived from a valid one, the same question put
// to every codec. No answer may be a panic or an error other than
// ErrCorrupt. Where the mutation only adds bytes an honest decoder has
// no use for (ignorable), a codec may also accept — but then it must
// decode exactly what the valid blob decodes to; a codec that checks
// its stream lengths answers ErrCorrupt, and its own tests say so
// (xortrunc's TestExactLengths). The other mutations may decode to
// anything.
type hostile struct {
	name      string
	blob      []byte
	ignorable bool
}

func hostileBlobs(t *testing.T, payload []byte) []hostile {
	t.Helper()
	flipped := append([]byte(nil), payload...)
	for i := range flipped {
		flipped[i] ^= 0xFF
	}
	tail := []byte{0x5A, 0, 0xFF, 1, 2, 3, 4, 5, 6}
	out := []hostile{
		{name: "every bit flipped", blob: flipped},
		{name: "bytes after the blob", blob: append(append([]byte(nil), payload...), tail...), ignorable: true},
	}
	// Where the blob ends in a DEFLATE stream (behind the header, or
	// behind the flag byte after it), the same two questions one layer
	// down: bytes left over after the last value of the inflated payload,
	// and a payload that is one byte longer in its middle — which moves
	// every later field, so a decoder that trusts its offsets reads a
	// length from the wrong place.
	for off := compress.HeaderSize; off <= compress.HeaderSize+1 && off < len(payload); off++ {
		inner, err := io.ReadAll(flate.NewReader(bytes.NewReader(payload[off:])))
		if err != nil || len(inner) == 0 {
			continue
		}
		rewrap := func(inner []byte) []byte {
			var buf bytes.Buffer
			buf.Write(payload[:off])
			w, _ := flate.NewWriter(&buf, flate.BestSpeed)
			w.Write(inner)
			w.Close()
			return buf.Bytes()
		}
		mid := len(inner) / 2
		out = append(out,
			hostile{name: "bytes after the inflated payload", blob: rewrap(append(append([]byte(nil), inner...), tail...)), ignorable: true},
			hostile{name: "a byte inserted into the inflated payload", blob: rewrap(append(append(append([]byte(nil), inner[:mid]...), 0), inner[mid:]...))},
		)
		break
	}
	return out
}

// ConformanceNonFinite checks NaN/Inf survive (via exception paths) in
// lossy modes where codecs promise it.
func ConformanceNonFinite(t *testing.T, c compress.Codec, mode compress.ErrorMode) {
	t.Helper()
	data := []float64{1, math.NaN(), -2, math.Inf(1), 0.5, math.Inf(-1), 0, 3}
	opt := compress.Options{Mode: mode, Bound: 1e-2}
	payload, err := c.Compress(nil, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(data))
	if err := c.Decompress(out, payload); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(out[1]) || !math.IsInf(out[3], 1) || !math.IsInf(out[5], -1) {
		t.Fatalf("non-finite values lost: %v", out)
	}
	for _, i := range []int{0, 2, 4, 6, 7} {
		if math.Abs(out[i]-data[i]) > 1e-2*math.Abs(data[i]) {
			t.Fatalf("finite neighbor %d out of bound: %g -> %g", i, data[i], out[i])
		}
	}
}

// ConformanceConcurrent hammers one codec instance from many
// goroutines — the SPMD engine shares codec instances across ranks, so
// Compress/Decompress must be safe and correct under concurrency.
func ConformanceConcurrent(t *testing.T, c compress.Codec) {
	t.Helper()
	datasets := Datasets(1024, 13)
	opt := compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		g := g
		go func() {
			data := datasets[g%len(datasets)].Data
			for i := 0; i < 25; i++ {
				p, err := c.Compress(nil, data, opt)
				if err != nil {
					done <- err
					return
				}
				out := make([]float64, len(data))
				if err := c.Decompress(out, p); err != nil {
					done <- err
					return
				}
				if idx := compress.CheckBound(data, out, opt); idx >= 0 {
					done <- fmt.Errorf("goroutine %d iter %d: bound violated at %d", g, i, idx)
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// LossyBlocks returns the two 4096-amplitude blocks the lossy
// benchmarks run on, shaped like the states that climb the §3.7 ladder
// in an 18-qubit run: "random-phase" — every amplitude 2^-9·e^{iθ}, θ
// uniform, what a scrambled state looks like — and "qft-like" — one
// block of the QFT of a basis state, 2^-9·e^{2πi·jx/2^18}, periodic in j.
func LossyBlocks(seed int64) []Dataset {
	const amps, scale = 4096, 1.0 / 512
	rng := rand.New(rand.NewSource(seed))
	random, qft := make([]float64, 2*amps), make([]float64, 2*amps)
	x, first := float64(rng.Intn(1<<18)|1), float64(rng.Intn(64)*amps)
	for j := 0; j < amps; j++ {
		s, c := math.Sincos(2 * math.Pi * rng.Float64())
		random[2*j], random[2*j+1] = scale*c, scale*s
		s, c = math.Sincos(2 * math.Pi * math.Mod((first+float64(j))*x, 1<<18) / (1 << 18))
		qft[2*j], qft[2*j+1] = scale*c, scale*s
	}
	return []Dataset{{"random-phase", random}, {"qft-like", qft}}
}

// lossyCase is one LossyBlocks block at one level of the engine's
// default ladder, l1 (the tightest bound) to l5.
type lossyCase struct {
	name string
	data []float64
	opt  compress.Options
}

func lossyCases(seed int64) []lossyCase {
	ladder := LossyOptions(compress.PointwiseRelative)
	slices.Reverse(ladder)
	var out []lossyCase
	for _, ds := range LossyBlocks(seed) {
		for lvl, opt := range ladder {
			out = append(out, lossyCase{fmt.Sprintf("%s/l%d", ds.Name, lvl+1), ds.Data, opt})
		}
	}
	return out
}

// Payload is a named blob and the number of values it decodes to.
type Payload struct {
	Name  string
	Blob  []byte
	Count int
}

// LossyPayloads returns c's blobs for LossyBlocks at each level of the
// ladder — what the decode side of a budgeted run is made of.
func LossyPayloads(tb testing.TB, c compress.Codec, seed int64) []Payload {
	tb.Helper()
	var out []Payload
	for _, lc := range lossyCases(seed) {
		blob, err := c.Compress(nil, lc.data, lc.opt)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, Payload{lc.name, blob, len(lc.data)})
	}
	return out
}

var benchSink int

// BenchmarkLossyCodec times c on LossyBlocks at each level of the
// ladder: MB/s of raw words and allocations per call for Compress and
// Decompress, with the ratio as a metric. Run it from the codec's
// package (go test -run '^$' -bench LossyCodec ./internal/compress/xortrunc).
func BenchmarkLossyCodec(b *testing.B, c compress.Codec) {
	for _, lc := range lossyCases(19) {
		blob, err := c.Compress(nil, lc.data, lc.opt)
		if err != nil {
			b.Fatal(err)
		}
		ratio := compress.Ratio(len(lc.data), len(blob))
		b.Run(lc.name+"/enc", func(b *testing.B) {
			b.SetBytes(int64(8 * len(lc.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := c.Compress(nil, lc.data, lc.opt)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(out)
			}
			b.ReportMetric(ratio, "ratio")
		})
		b.Run(lc.name+"/dec", func(b *testing.B) {
			out := make([]float64, len(lc.data))
			b.SetBytes(int64(8 * len(lc.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.Decompress(out, blob); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ratio, "ratio")
		})
	}
}

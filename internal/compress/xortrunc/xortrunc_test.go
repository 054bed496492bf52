package xortrunc

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qcsim/internal/compress"
	"qcsim/internal/compress/codectest"
	"qcsim/internal/stats"
)

func TestConformanceC(t *testing.T) {
	c := New()
	codectest.ConformanceLossless(t, c)
	codectest.ConformanceLossy(t, c, compress.PointwiseRelative)
	codectest.ConformanceLossy(t, c, compress.Absolute)
	codectest.ConformanceEmptyAndSmall(t, c)
	codectest.ConformanceCorrupt(t, c)
	codectest.ConformanceNonFinite(t, c, compress.PointwiseRelative)
}

func TestConformanceD(t *testing.T) {
	d := NewShuffled()
	codectest.ConformanceLossless(t, d)
	codectest.ConformanceLossy(t, d, compress.PointwiseRelative)
	codectest.ConformanceLossy(t, d, compress.Absolute)
	codectest.ConformanceEmptyAndSmall(t, d)
	codectest.ConformanceCorrupt(t, d)
	codectest.ConformanceNonFinite(t, d, compress.PointwiseRelative)
}

func TestKeepBits(t *testing.T) {
	// Paper Eq. 12: Sig_Bit_Count = Bit_Count(Sign&Exp) - EXP(ε).
	cases := []struct {
		bound float64
		want  int
	}{
		{1e-1, 12 + 4},  // 2^-4 = 0.0625 ≤ 0.1
		{1e-2, 12 + 7},  // 2^-7 ≈ 0.0078 ≤ 0.01
		{1e-3, 12 + 10}, // 2^-10 ≈ 0.00098
		{1e-4, 12 + 14},
		{1e-5, 12 + 17},
	}
	for _, c := range cases {
		got := KeepBits(compress.Options{Mode: compress.PointwiseRelative, Bound: c.bound}, 0)
		if got != c.want {
			t.Errorf("KeepBits(%g) = %d, want %d", c.bound, got, c.want)
		}
	}
	if KeepBits(compress.Options{Mode: compress.Lossless}, 0) != 64 {
		t.Error("lossless KeepBits != 64")
	}
}

func TestOneSidedContract(t *testing.T) {
	// Paper §3.7: |D'| must lie in [|D|(1-δ), |D|] — truncation only
	// shrinks magnitudes.
	rng := rand.New(rand.NewSource(21))
	data := make([]float64, 4096)
	for i := range data {
		data[i] = rng.NormFloat64() * math.Exp(rng.Float64()*6-3)
	}
	c := New()
	for _, bound := range []float64{1e-1, 1e-3, 1e-5} {
		opt := compress.Options{Mode: compress.PointwiseRelative, Bound: bound}
		out := codectest.RoundTrip(t, c, data, opt)
		for i := range data {
			if math.Abs(out[i]) > math.Abs(data[i]) {
				t.Fatalf("bound %g idx %d: |out| %g > |in| %g", bound, i, out[i], data[i])
			}
			if math.Abs(out[i]) < math.Abs(data[i])*(1-bound) {
				t.Fatalf("bound %g idx %d: out %g below one-sided floor of %g", bound, i, out[i], data[i])
			}
			if math.Signbit(out[i]) != math.Signbit(data[i]) {
				t.Fatalf("sign flipped at %d", i)
			}
		}
	}
}

func TestErrorsUncorrelated(t *testing.T) {
	// Paper §4.2: lag-1 autocorrelation of Solution C's relative errors
	// on dense random data stays near zero.
	rng := rand.New(rand.NewSource(33))
	data := make([]float64, 1<<16)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	c := New()
	opt := compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3}
	out := codectest.RoundTrip(t, c, data, opt)
	errs := make([]float64, len(data))
	for i := range data {
		errs[i] = (data[i] - out[i]) / data[i]
	}
	if r := math.Abs(stats.Lag1Autocorrelation(errs)); r > 0.01 {
		t.Fatalf("lag-1 autocorrelation = %g, want ≈ 0", r)
	}
}

func TestErrorsRoughlyUniform(t *testing.T) {
	// Paper Fig. 14: normalized errors follow a uniform distribution.
	// Within a single binade the dropped mantissa bits are iid uniform,
	// so the *absolute* truncation error is uniform on [0, 2^(E-m));
	// sample magnitudes from [1, 2) to pin the binade.
	rng := rand.New(rand.NewSource(34))
	data := make([]float64, 1<<15)
	for i := range data {
		data[i] = 1 + rng.Float64()
		if rng.Intn(2) == 0 {
			data[i] = -data[i]
		}
	}
	c := New()
	bound := 1e-2
	out := codectest.RoundTrip(t, c, data, compress.Options{Mode: compress.PointwiseRelative, Bound: bound})
	var abs []float64
	for i := range data {
		abs = append(abs, math.Abs(data[i]-out[i]))
	}
	_, hi := stats.MinMax(abs)
	if hi > bound*2 { // |v| < 2 ⇒ abs error < 2·bound-ish ceiling
		t.Fatalf("absolute error %g implausibly large", hi)
	}
	if d := stats.UniformityKS(abs, 0, hi); d > 0.02 {
		t.Fatalf("KS distance from uniform = %g", d)
	}
	// And across binades the normalized error must never exceed 1.
	for i := range data {
		if n := math.Abs(data[i]-out[i]) / (math.Abs(data[i]) * bound); n > 1 {
			t.Fatalf("normalized error %g exceeds 1 at %d", n, i)
		}
	}
}

func TestOverPreservation(t *testing.T) {
	// Fig. 13/14: mean achieved error is well below the bound because
	// truncation snaps to discrete bit planes.
	rng := rand.New(rand.NewSource(35))
	data := make([]float64, 1<<14)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	c := New()
	bound := 1e-1
	out := codectest.RoundTrip(t, c, data, compress.Options{Mode: compress.PointwiseRelative, Bound: bound})
	var sum float64
	n := 0
	for i := range data {
		if data[i] != 0 {
			sum += math.Abs(data[i]-out[i]) / math.Abs(data[i])
			n++
		}
	}
	if mean := sum / float64(n); mean > bound/2 {
		t.Fatalf("mean error %g not over-preserved vs bound %g", mean, bound)
	}
}

func TestFig13WorkedExample(t *testing.T) {
	// The paper's Fig. 13(b) uses 3.9921875 with ε = 0.01: the kept
	// reconstruction must satisfy the bound with error ≤ 0.01.
	data := []float64{3.9921875, 3.9921875}
	c := New()
	out := codectest.RoundTrip(t, c, data, compress.Options{Mode: compress.PointwiseRelative, Bound: 0.01})
	rel := (data[0] - out[0]) / data[0]
	if rel < 0 || rel > 0.01 {
		t.Fatalf("relative error %g outside (0, 0.01]", rel)
	}
}

func TestSolutionDEqualErrors(t *testing.T) {
	// §4.2: C and D produce exactly the same compression errors — the
	// reshuffle only reorders bytes for the dictionary stage.
	rng := rand.New(rand.NewSource(36))
	data := make([]float64, 2048)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	opt := compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3}
	outC := codectest.RoundTrip(t, New(), data, opt)
	outD := codectest.RoundTrip(t, NewShuffled(), data, opt)
	for i := range outC {
		if math.Float64bits(outC[i]) != math.Float64bits(outD[i]) {
			t.Fatalf("C and D diverge at %d: %g vs %g", i, outC[i], outD[i])
		}
	}
}

func TestRatioImprovesWithLooserBound(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	data := make([]float64, 1<<14)
	for i := range data {
		data[i] = rng.NormFloat64() * 1e-4
	}
	c := New()
	var prev float64 = -1
	for _, bound := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
		p, err := c.Compress(nil, data, compress.Options{Mode: compress.PointwiseRelative, Bound: bound})
		if err != nil {
			t.Fatal(err)
		}
		r := compress.Ratio(len(data), len(p))
		if r < prev*0.95 { // allow tiny nonmonotonicity from flate
			t.Fatalf("ratio fell from %.2f to %.2f when loosening to %g", prev, r, bound)
		}
		prev = r
	}
}

func TestDenormalsViaExceptions(t *testing.T) {
	data := []float64{5e-324, 1e-310, -3e-320, 1.5, 0}
	c := New()
	out := codectest.RoundTrip(t, c, data, compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-5})
	for i := range data {
		if math.Abs(out[i]-data[i]) > 1e-5*math.Abs(data[i]) {
			t.Fatalf("denormal %d: %g -> %g", i, data[i], out[i])
		}
	}
}

func TestDisableLossless(t *testing.T) {
	c := &Codec{DisableLossless: true}
	data := codectest.Datasets(1024, 41)[8].Data
	out := codectest.RoundTrip(t, c, data, compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-2})
	_ = out
}

func TestQuickContract(t *testing.T) {
	c := New()
	f := func(raw []float64, boundSel uint8) bool {
		data := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				data = append(data, v)
			}
		}
		bounds := []float64{1e-1, 1e-2, 1e-3, 1e-4, 1e-5}
		opt := compress.Options{Mode: compress.PointwiseRelative, Bound: bounds[int(boundSel)%len(bounds)]}
		p, err := c.Compress(nil, data, opt)
		if err != nil {
			return false
		}
		out := make([]float64, len(data))
		if err := c.Decompress(out, p); err != nil {
			return false
		}
		return compress.CheckBound(data, out, opt) < 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentUse(t *testing.T) {
	codectest.ConformanceConcurrent(t, New())
	codectest.ConformanceConcurrent(t, NewShuffled())
}

// TestExactLengths: both streams of the payload must be exactly as long
// as the header's count makes them. A code stream longer than ⌈n/4⌉
// bytes and body bytes left over after the last value used to decode
// silently — room in every blob for bytes no decoder looked at.
func TestExactLengths(t *testing.T) {
	raw := &Codec{DisableLossless: true} // the pre-DEFLATE payload in the clear
	for _, n := range []int{1, 4, 5, 64, 1023} {
		data := codectest.Datasets(1024, 5)[8].Data[:n]
		blob, err := raw.Compress(nil, data, compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, n)
		if err := New().Decompress(out, blob); err != nil {
			t.Fatalf("n=%d: honest blob: %v", n, err)
		}
		// Header, flag, then the payload: shuffle, keep, no exceptions, the
		// code stream's length.
		lenAt := compress.HeaderSize + 1 + 2 + 4
		codeLen := (n + 3) / 4
		codesEnd := lenAt + 4 + codeLen

		longBody := append(append([]byte(nil), blob...), 0)
		longCodes := append(append(append([]byte(nil), blob[:codesEnd]...), 0), blob[codesEnd:]...)
		binary.LittleEndian.PutUint32(longCodes[lenAt:], uint32(codeLen+1))
		shortCodes := append(append([]byte(nil), blob[:codesEnd-1]...), blob[codesEnd:]...)
		binary.LittleEndian.PutUint32(shortCodes[lenAt:], uint32(codeLen-1))
		for name, hostile := range map[string][]byte{
			"a body byte after the last value":  longBody,
			"a code stream one byte too long":   longCodes,
			"a code stream one byte too short":  shortCodes,
			"a body one byte short of its last": blob[:len(blob)-1],
		} {
			if err := New().Decompress(out, hostile); !errors.Is(err, compress.ErrCorrupt) {
				t.Errorf("n=%d, %s: %v, want ErrCorrupt", n, name, err)
			}
		}
	}
}

// TestBoundHoldsWhenLogRounds: Compress tests a normal value against
// the bound only when keeping KeepBits' mantissa bits does not already
// guarantee it. It does not when the logarithm behind KeepBits rounded
// across an integer: 2^600·(1−2^-46) has floor(log2) 599, math.Log2
// says 600.0, and one mantissa bit too few is kept. Then every value
// must be tested, and the ones truncation moves too far stored exactly.
func TestBoundHoldsWhenLogRounds(t *testing.T) {
	bound := math.Ldexp(1-math.Ldexp(1, -46), 600)
	if math.Floor(math.Log2(bound)) != 600 {
		t.Skip("math.Log2 resolves this bound; the premise is gone")
	}
	opt := compress.Options{Mode: compress.Absolute, Bound: bound}
	data := []float64{
		math.Ldexp(2-math.Ldexp(1, -52), 600), // truncates to 2^600: off by 2^600·(1−2^-52) > bound
		math.Ldexp(1.25, 600),                 // off by 2^598: fine
		-math.Ldexp(2-math.Ldexp(1, -40), 600),
		0,
	}
	for _, c := range []*Codec{New(), NewShuffled()} {
		blob, err := c.Compress(nil, data, opt)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(data))
		if err := c.Decompress(out, blob); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if math.Abs(data[i]-out[i]) > bound {
				t.Errorf("%s: value %d: %g -> %g, off by more than the bound", c.Name(), i, data[i], out[i])
			}
		}
	}
}

// TestAllocations is the steady-state allocation contract the lossless
// codec has had since it got its pooled scratch: Compress allocates the
// blob — exactly, cap == len — and nothing else, Decompress nothing,
// at every level of the ladder, for both solutions, with and without
// the DEFLATE stage, and on a block whose exception table has to be
// spliced in. Both counts rest on the pooled scratch being there, which
// the race detector's sync.Pool does not promise; CI runs this test
// without it.
func TestAllocations(t *testing.T) {
	if codectest.RaceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	blocks := codectest.LossyBlocks(3)
	odd := append([]float64(nil), blocks[0].Data...)
	for i := 0; i < len(odd); i += 97 {
		odd[i] = 5e-324 * float64(1+i)
	}
	blocks = append(blocks, codectest.Dataset{Name: "with-denormals", Data: odd})
	for _, c := range []*Codec{New(), NewShuffled(), {DisableLossless: true}} {
		for _, ds := range blocks {
			for _, opt := range append(codectest.LossyOptions(compress.PointwiseRelative), compress.Options{Mode: compress.Lossless}) {
				blob, err := c.Compress(nil, ds.Data, opt)
				if err != nil {
					t.Fatal(err)
				}
				if cap(blob) != len(blob) {
					t.Errorf("%s %s %v: blob of %d bytes has capacity %d", c.Name(), ds.Name, opt, len(blob), cap(blob))
				}
				out := make([]float64, len(ds.Data))
				enc := testing.AllocsPerRun(10, func() {
					if _, err := c.Compress(nil, ds.Data, opt); err != nil {
						t.Fatal(err)
					}
				})
				dec := testing.AllocsPerRun(10, func() {
					if err := c.Decompress(out, blob); err != nil {
						t.Fatal(err)
					}
				})
				if enc != 1 || dec != 0 {
					t.Errorf("%s (lossless stage %v) %s %v: Compress allocates %v times, Decompress %v; want 1 (the blob) and 0",
						c.Name(), !c.DisableLossless, ds.Name, opt, enc, dec)
				}
			}
		}
	}
}

// BenchmarkLossyCodec: xor-c with its two stages apart — "stage=loops"
// is the truncate-XOR-pack loop alone (DisableLossless), "stage=all" the
// codec as the engine runs it, so their difference is what
// the DEFLATE stage costs — and xor-d.
func BenchmarkLossyCodec(b *testing.B) {
	b.Run("xor-c/stage=all", func(b *testing.B) { codectest.BenchmarkLossyCodec(b, New()) })
	b.Run("xor-c/stage=loops", func(b *testing.B) { codectest.BenchmarkLossyCodec(b, &Codec{DisableLossless: true}) })
	b.Run("xor-d", func(b *testing.B) { codectest.BenchmarkLossyCodec(b, NewShuffled()) })
}

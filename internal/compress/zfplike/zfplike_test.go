package zfplike

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"qcsim/internal/compress"
	"qcsim/internal/compress/codectest"
)

func TestConformance(t *testing.T) {
	c := New()
	codectest.ConformanceLossless(t, c)
	codectest.ConformanceLossy(t, c, compress.Absolute)
	codectest.ConformanceLossy(t, c, compress.PointwiseRelative)
	codectest.ConformanceEmptyAndSmall(t, c)
	codectest.ConformanceCorrupt(t, c)
}

func TestLiftRoundTripNearExact(t *testing.T) {
	// The lifting transform loses at most the low bit per butterfly;
	// verify inverse(forward(q)) is within a few ulps in fixed point.
	rng := rand.New(rand.NewSource(60))
	for iter := 0; iter < 2000; iter++ {
		var q, orig [blockLen]int64
		for j := range q {
			q[j] = int64(rng.Uint64() >> 8) // leave headroom
			if rng.Intn(2) == 0 {
				q[j] = -q[j]
			}
			orig[j] = q[j]
		}
		forwardLift(&q)
		inverseLift(&q)
		for j := range q {
			if d := q[j] - orig[j]; d > 8 || d < -8 {
				t.Fatalf("iter %d lane %d: drift %d", iter, j, d)
			}
		}
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	cases := []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), math.MaxInt64 / 4, math.MinInt64 / 4}
	for _, v := range cases {
		if got := fromNegabinary(toNegabinary(v)); got != v {
			t.Fatalf("negabinary(%d) -> %d", v, got)
		}
	}
	f := func(v int64) bool { return fromNegabinary(toNegabinary(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSmoothBeatsSpiky(t *testing.T) {
	// ZFP's transform decorrelates smooth data; spiky data (the paper's
	// point) should compress much worse at the same bound.
	n := 1 << 12
	smooth := make([]float64, n)
	spiky := make([]float64, n)
	rng := rand.New(rand.NewSource(61))
	for i := range smooth {
		smooth[i] = math.Sin(float64(i) / 100)
		spiky[i] = rng.NormFloat64() * math.Exp(rng.Float64()*10-5)
	}
	c := New()
	opt := compress.Options{Mode: compress.Absolute, Bound: 1e-4}
	ps, err := c.Compress(nil, smooth, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Scale spiky bound by its range, like the paper's range-relative
	// absolute bounds.
	lo, hi := -1.0, 1.0
	for _, v := range spiky {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	pp, err := c.Compress(nil, spiky, compress.Options{Mode: compress.Absolute, Bound: 1e-4 * (hi - lo)})
	if err != nil {
		t.Fatal(err)
	}
	rs := compress.Ratio(n, len(ps))
	rp := compress.Ratio(n, len(pp))
	if rs <= rp {
		t.Fatalf("smooth ratio %.2f should exceed spiky ratio %.2f", rs, rp)
	}
}

func TestAllZeroBlocksAreCheap(t *testing.T) {
	data := make([]float64, 1<<14)
	c := New()
	p, err := c.Compress(nil, data, compress.Options{Mode: compress.Absolute, Bound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	// One "all-zero" flag bit per 4 doubles caps the ratio at 256:1
	// before header overhead.
	if r := compress.Ratio(len(data), len(p)); r < 200 {
		t.Fatalf("all-zero ratio = %.1f", r)
	}
}

func TestMixedExponentsBounded(t *testing.T) {
	// A block mixing 1e300 and 1e-300 stresses exponent alignment: the
	// tiny value may be crushed to zero, which the absolute bound
	// permits but must not exceed.
	data := []float64{1e300, 1e-300, -1e299, 5e-301, 1, 2, 3, 4}
	opt := compress.Options{Mode: compress.Absolute, Bound: 1e290}
	codectest.RoundTrip(t, New(), data, opt)
}

func TestQuickAbsoluteContract(t *testing.T) {
	c := New()
	f := func(raw []float64, boundSel uint8) bool {
		data := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e100 {
				data = append(data, v)
			}
		}
		if len(data) == 0 {
			return true
		}
		lo, hi := data[0], data[0]
		for _, v := range data {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		r := hi - lo
		if r == 0 {
			r = math.Abs(hi)
			if r == 0 {
				r = 1
			}
		}
		bounds := []float64{1e-1, 1e-2, 1e-3}
		opt := compress.Options{Mode: compress.Absolute, Bound: bounds[int(boundSel)%len(bounds)] * r}
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
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentUse(t *testing.T) {
	codectest.ConformanceConcurrent(t, New())
}

func BenchmarkLossyCodec(b *testing.B) { codectest.BenchmarkLossyCodec(b, New()) }

package fpziplike

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
	codectest.ConformanceLossy(t, c, compress.PointwiseRelative)
	codectest.ConformanceEmptyAndSmall(t, c)
	codectest.ConformanceCorrupt(t, c)
	codectest.ConformanceNonFinite(t, c, compress.PointwiseRelative)
}

func TestAbsoluteModeRejected(t *testing.T) {
	// FPZIP has no absolute-error mode (the paper's Fig. 7 omits it for
	// exactly this reason).
	if _, err := New().Compress(nil, []float64{1}, compress.Options{Mode: compress.Absolute, Bound: 1}); err == nil {
		t.Fatal("absolute mode accepted")
	}
}

func TestMonotoneMapOrderPreserving(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ua := monotone(math.Float64bits(a))
		ub := monotone(math.Float64bits(b))
		if a < b {
			return ua < ub
		}
		if a > b {
			return ua > ub
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneRoundTrip(t *testing.T) {
	f := func(bits uint64) bool { return unmonotone(monotone(bits)) == bits }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZigzagRoundTrip(t *testing.T) {
	f := func(d uint64) bool { return unzigzag(zigzag(d)) == d }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Small residuals map to small codes.
	if zigzag(1) != 2 || zigzag(^uint64(0)) != 1 {
		t.Fatalf("zigzag(±1) = %d, %d", zigzag(1), zigzag(^uint64(0)))
	}
}

func TestPrecisionMapping(t *testing.T) {
	// Paper §4.1: precisions 16/18/22/24/28 ≈ bounds 1E-1…1E-5.
	pairs := []struct {
		prec  int
		bound float64
	}{
		{16, 1e-1}, {18, 1e-2}, {22, 1e-3}, {26, 1e-4}, {28, 1e-5},
	}
	for _, p := range pairs {
		if got := RelativeBoundFor(p.prec); got > p.bound*4 {
			t.Errorf("RelativeBoundFor(%d) = %g, far above %g", p.prec, got, p.bound)
		}
	}
	if PrecisionFor(1e-2) != 19 {
		t.Errorf("PrecisionFor(1e-2) = %d", PrecisionFor(1e-2))
	}
	if PrecisionFor(1) != 12 {
		t.Errorf("PrecisionFor(1) = %d", PrecisionFor(1))
	}
}

func TestExplicitPrecisionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	data := make([]float64, 4096)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	for _, prec := range []int{16, 18, 22, 24, 28, 64} {
		c := NewPrecision(prec)
		p, err := c.Compress(nil, data, compress.Options{Mode: compress.PointwiseRelative, Bound: 1})
		if err != nil {
			t.Fatalf("prec %d: %v", prec, err)
		}
		out := make([]float64, len(data))
		if err := c.Decompress(out, p); err != nil {
			t.Fatalf("prec %d: %v", prec, err)
		}
		bound := RelativeBoundFor(prec)
		for i := range data {
			if math.Abs(out[i]-data[i]) > bound*math.Abs(data[i])*(1+1e-12) {
				t.Fatalf("prec %d idx %d: %g -> %g (bound %g)", prec, i, data[i], out[i], bound)
			}
		}
	}
}

func TestHigherPrecisionCostsMore(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	data := make([]float64, 1<<14)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	var prev int
	for _, prec := range []int{16, 22, 28, 40} {
		p, err := NewPrecision(prec).Compress(nil, data, compress.Options{Mode: compress.PointwiseRelative, Bound: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(p) < prev {
			t.Fatalf("precision %d produced smaller payload (%d < %d)", prec, len(p), prev)
		}
		prev = len(p)
	}
}

func TestInvalidPrecision(t *testing.T) {
	for _, prec := range []int{1, 3, 65, -4} {
		c := NewPrecision(prec)
		if _, err := c.Compress(nil, []float64{1}, compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-2}); err == nil {
			t.Fatalf("precision %d accepted", prec)
		}
	}
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
}

func BenchmarkLossyCodec(b *testing.B) { codectest.BenchmarkLossyCodec(b, New()) }

package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestMean(t *testing.T) {
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Fatalf("Mean = %v", m)
	}
	if m := Mean(nil); m != 0 {
		t.Fatalf("Mean(nil) = %v", m)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 0})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MinMax(empty) did not panic")
		}
	}()
	MinMax(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("q0.5 = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("Quantile(nil) not NaN")
	}
}

func TestLag1AutocorrelationAlternating(t *testing.T) {
	// Perfectly anti-correlated series.
	xs := make([]float64, 1000)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 1
		} else {
			xs[i] = -1
		}
	}
	if r := Lag1Autocorrelation(xs); r > -0.9 {
		t.Fatalf("alternating autocorr = %v, want ≈ -1", r)
	}
}

func TestLag1AutocorrelationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 100000)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	if r := math.Abs(Lag1Autocorrelation(xs)); r > 0.02 {
		t.Fatalf("iid autocorr = %v, want ≈ 0", r)
	}
}

func TestLag1AutocorrelationRamp(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if r := Lag1Autocorrelation(xs); r < 0.99 {
		t.Fatalf("ramp autocorr = %v, want ≈ 1", r)
	}
}

func TestLag1Degenerate(t *testing.T) {
	if r := Lag1Autocorrelation([]float64{1}); r != 0 {
		t.Fatalf("single = %v", r)
	}
	if r := Lag1Autocorrelation([]float64{3, 3, 3}); r != 0 {
		t.Fatalf("constant = %v", r)
	}
}

func TestUniformityKS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 20000
	uni := make([]float64, n)
	for i := range uni {
		uni[i] = rng.Float64()
	}
	if d := UniformityKS(uni, 0, 1); d > 1.63/math.Sqrt(float64(n)) {
		t.Fatalf("uniform KS = %v, too large", d)
	}
	// A point mass is very non-uniform.
	mass := make([]float64, n)
	for i := range mass {
		mass[i] = 0.5
	}
	if d := UniformityKS(mass, 0, 1); d < 0.4 {
		t.Fatalf("point-mass KS = %v, too small", d)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[float64]string{
		512:                  "512 B",
		1024:                 "1 KB",
		16 * 1024 * 1024:     "16 MB",
		1 << 40:              "1 TB",
		32 * math.Pow(2, 60): "32 EB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Fatalf("FormatBytes(%v) = %q, want %q", in, got, want)
		}
	}
}

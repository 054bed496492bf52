package registry

import (
	"testing"

	"qcsim/internal/compress"
	"qcsim/internal/compress/codectest"
)

func TestAllNamesConstruct(t *testing.T) {
	for _, name := range Names() {
		c, err := New(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c == nil || c.Name() == "" {
			t.Fatalf("%s: bad codec", name)
		}
	}
}

func TestAliases(t *testing.T) {
	pairs := map[string]string{
		"solution-c": "xor-c",
		"solution-a": "sz-a",
		"zstd":       "zstd-like",
		"fpzip":      "fpzip-like",
	}
	for alias, canonical := range pairs {
		a, err := New(alias)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(canonical)
		if err != nil {
			t.Fatal(err)
		}
		if a.Name() != b.Name() {
			t.Fatalf("alias %s resolved to %s, want %s", alias, a.Name(), b.Name())
		}
	}
}

func TestUnknownName(t *testing.T) {
	if _, err := New("bogus"); err == nil {
		t.Fatal("unknown codec accepted")
	}
}

func TestFreshInstances(t *testing.T) {
	a, _ := New("xor-c")
	b, _ := New("xor-c")
	if a == b {
		t.Fatal("registry returned shared instances")
	}
}

func TestExactCapacity(t *testing.T) {
	for _, name := range Names() {
		c, _ := New(name)
		codectest.ConformanceExactCapacity(t, c)
	}
}

func TestRegistryCodecsRoundTrip(t *testing.T) {
	data := []float64{0.5, -0.25, 0.125, 0, 1e-9, -3.75, 2, 0.875}
	for _, name := range Names() {
		c, _ := New(name)
		opt := compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3}
		if name == "zfp-like" {
			// zfp-like also supports PWR via log preprocessing; fine.
			opt = compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3}
		}
		p, err := c.Compress(nil, data, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := make([]float64, len(data))
		if err := c.Decompress(out, p); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if i := compress.CheckBound(data, out, opt); i >= 0 {
			t.Fatalf("%s: bound violated at %d", name, i)
		}
	}
}

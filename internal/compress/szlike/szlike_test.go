package szlike

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"qcsim/internal/bitio"
	"qcsim/internal/compress"
	"qcsim/internal/compress/codectest"
)

func TestConformanceA(t *testing.T) {
	a := NewA()
	codectest.ConformanceLossless(t, a)
	codectest.ConformanceLossy(t, a, compress.PointwiseRelative)
	codectest.ConformanceLossy(t, a, compress.Absolute)
	codectest.ConformanceEmptyAndSmall(t, a)
	codectest.ConformanceCorrupt(t, a)
	codectest.ConformanceNonFinite(t, a, compress.PointwiseRelative)
}

func TestConformanceB(t *testing.T) {
	b := NewB()
	codectest.ConformanceLossless(t, b)
	codectest.ConformanceLossy(t, b, compress.PointwiseRelative)
	codectest.ConformanceLossy(t, b, compress.Absolute)
	codectest.ConformanceEmptyAndSmall(t, b)
	codectest.ConformanceCorrupt(t, b)
	codectest.ConformanceNonFinite(t, b, compress.PointwiseRelative)
}

func TestNames(t *testing.T) {
	if NewA().Name() != "sz-a" || NewB().Name() != "sz-b" {
		t.Fatal("names changed")
	}
	if (&Codec{Stride: 3, Bins: 64}).Name() == "" {
		t.Fatal("custom codec needs a name")
	}
}

func TestSmoothDataCompressesWell(t *testing.T) {
	// SZ's Lorenzo predictor shines on smooth data: tokens cluster near
	// the zero bin and Huffman squeezes them.
	data := make([]float64, 1<<14)
	for i := range data {
		data[i] = math.Sin(float64(i) / 200)
	}
	a := NewA()
	p, err := a.Compress(nil, data, compress.Options{Mode: compress.Absolute, Bound: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if r := compress.Ratio(len(data), len(p)); r < 10 {
		t.Fatalf("smooth ratio = %.2f, want ≥ 10", r)
	}
}

func TestStrideBPredictsInterleavedStreams(t *testing.T) {
	// Interleaved (re, im) streams with very different scales defeat a
	// stride-1 predictor but suit stride 2 (Solution B's rationale).
	n := 1 << 13
	data := make([]float64, n)
	for i := 0; i < n; i += 2 {
		data[i] = 1.0 + math.Sin(float64(i)/300)*1e-3    // re stream near 1
		data[i+1] = -5.0 + math.Cos(float64(i)/300)*1e-3 // im stream near -5
	}
	opt := compress.Options{Mode: compress.Absolute, Bound: 1e-6}
	pa, err := NewA().Compress(nil, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := NewB().Compress(nil, data, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pb) > len(pa) {
		t.Fatalf("stride-2 (%d bytes) should beat stride-1 (%d bytes) on interleaved streams", len(pb), len(pa))
	}
}

func TestSpikyDataStillBounded(t *testing.T) {
	// Fig. 9/10: spiky data defeats prediction (poor ratio) but the
	// error bound must hold regardless.
	rng := rand.New(rand.NewSource(50))
	data := make([]float64, 8192)
	for i := range data {
		data[i] = rng.NormFloat64() * math.Exp(rng.Float64()*20-10)
	}
	for _, c := range []*Codec{NewA(), NewB()} {
		codectest.RoundTrip(t, c, data, compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-4})
	}
}

func TestZeroRunsExact(t *testing.T) {
	// Zeros go through the sign stream and must reconstruct exactly
	// (critical for sparse quantum states).
	data := make([]float64, 4096)
	data[100] = 0.25
	data[101] = -0.5
	out := codectest.RoundTrip(t, NewA(), data, compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-2})
	for i, v := range data {
		if v == 0 && out[i] != 0 {
			t.Fatalf("zero at %d became %g", i, out[i])
		}
	}
}

func TestNegativeValuesKeepSign(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	data := make([]float64, 2048)
	for i := range data {
		data[i] = -math.Abs(rng.NormFloat64())
	}
	out := codectest.RoundTrip(t, NewB(), data, compress.Options{Mode: compress.PointwiseRelative, Bound: 1e-3})
	for i := range out {
		if out[i] > 0 {
			t.Fatalf("sign flip at %d", i)
		}
	}
}

func TestInvalidStride(t *testing.T) {
	c := &Codec{Stride: 0, Bins: 64}
	if _, err := c.Compress(nil, []float64{1}, compress.Options{}); err == nil {
		t.Fatal("stride 0 accepted")
	}
}

func TestConcurrentUse(t *testing.T) {
	codectest.ConformanceConcurrent(t, NewA())
	codectest.ConformanceConcurrent(t, NewB())
}

// TestDecompressRefusesForgedTokenCount: the token stream's symbol count
// comes off the wire, and a blob whose Huffman header claims 4 G tokens
// — nine bytes: the count, a one-symbol table, no payload — must come
// back as ErrCorrupt having allocated about what the input weighs, not
// the 8 GB the count asks for.
func TestDecompressRefusesForgedTokenCount(t *testing.T) {
	w := bitio.NewWriter(16)
	w.WriteBits(0xFFFFFFFF, 32) // symbols
	w.WriteBits(1, 17)          // distinct symbols
	w.WriteBits(0, 16)          // symbol 0 …
	w.WriteBits(1, 6)           // … at code length 1
	huff := w.Bytes()

	c := NewA()
	pre := []byte{0, byte(c.Stride)}
	pre = binary.LittleEndian.AppendUint32(pre, uint32(c.Bins))
	pre = binary.LittleEndian.AppendUint64(pre, 0)
	pre = binary.LittleEndian.AppendUint32(pre, uint32(len(huff)))
	pre = append(pre, huff...)
	pre = binary.LittleEndian.AppendUint32(pre, 0) // no signs, no literals
	var f compress.Flate
	blob := append(compress.AppendHeader(nil, compress.Header{Magic: magic, Count: 4}), f.Deflate(pre)...)

	dst := make([]float64, 4)
	c.Decompress(dst, blob) // warm the pooled reader: its window is not this test's subject
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := c.Decompress(dst, blob)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("forged count gave %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("refusing a %d-byte blob allocated %d bytes", len(blob), got)
	}
}

func BenchmarkLossyCodec(b *testing.B) {
	b.Run("sz-a", func(b *testing.B) { codectest.BenchmarkLossyCodec(b, NewA()) })
	b.Run("sz-b", func(b *testing.B) { codectest.BenchmarkLossyCodec(b, NewB()) })
}

package qcsim

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"qcsim/circuit"
	"qcsim/internal/compress/codectest"
	"qcsim/internal/quantum"
)

// TestCodecRoundTripAndBound drives a built-in codec through the public
// interface and verifies the pointwise-relative contract.
func TestCodecRoundTripAndBound(t *testing.T) {
	codec, err := NewCodec("solution-c")
	if err != nil {
		t.Fatal(err)
	}
	if codec.Name() != "xor-c" {
		t.Fatalf("alias resolved to %q", codec.Name())
	}
	data := make([]float64, 512)
	for i := range data {
		data[i] = math.Sin(float64(i)*0.37) / 3
	}
	const bound = 1e-3
	payload, err := codec.Compress(nil, data, CodecOptions{Mode: CodecPointwiseRelative, Bound: bound})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(data))
	if err := codec.Decompress(out, payload); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if math.Abs(data[i]-out[i]) > bound*math.Abs(data[i])*(1+1e-12) {
			t.Fatalf("value %d violates the bound: %v -> %v", i, data[i], out[i])
		}
	}
	if r := CodecRatio(len(data), len(payload)); r <= 1 {
		t.Fatalf("ratio %.2f, expected compression", r)
	}
}

// testRawCodec is a trivial self-describing external codec: raw
// little-endian float64s (exact, so every bound holds).
type testRawCodec struct{}

func (testRawCodec) Name() string { return "test-raw" }

func (testRawCodec) Compress(dst []byte, src []float64, _ CodecOptions) ([]byte, error) {
	var b [8]byte
	for _, v := range src {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		dst = append(dst, b[:]...)
	}
	return dst, nil
}

func (testRawCodec) Decompress(dst []float64, data []byte) error {
	if len(data) != len(dst)*8 {
		return fmt.Errorf("test-raw: payload %d bytes for %d values", len(data), len(dst))
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return nil
}

// TestRegisterCodec registers a third-party codec and runs the full
// engine with it selected by name.
func TestRegisterCodec(t *testing.T) {
	if err := RegisterCodec("test-raw", func() Codec { return testRawCodec{} }); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range Codecs() {
		if n == "test-raw" {
			found = true
		}
	}
	if !found {
		t.Fatalf("registered codec missing from Codecs(): %v", Codecs())
	}
	// Select it by name and force the lossy path with a small budget:
	// the engine runs every lossy level through the external codec.
	sim, err := New(8, WithCodec("test-raw"), WithBlockAmps(32), WithMemoryBudget(1), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), circuit.HadamardAll(8))
	if err != nil && !errors.Is(err, ErrBudgetExceeded) {
		t.Fatal(err)
	}
	if res.Stats.Escalations == 0 {
		t.Fatal("budget of 1 byte did not escalate; external codec never exercised")
	}
	// The raw codec is exact, so amplitudes survive the "lossy" levels
	// untouched.
	a, err := sim.Amplitude(0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / math.Sqrt(256)
	if math.Abs(real(a)-want) > 1e-12 {
		t.Fatalf("amplitude %v through external codec, want %v", a, want)
	}
	// NewCodec hands back the registered codec itself, which must hold
	// up when every worker of every rank calls one instance at once.
	c, err := NewCodec("test-raw")
	if err != nil {
		t.Fatal(err)
	}
	codectest.ConformanceConcurrent(t, c)
	in := []float64{1, -2, 0.5}
	payload, err := c.Compress(nil, in, CodecOptions{Mode: CodecLossless})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 3)
	if err := c.Decompress(out, payload); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatal("round-trip through registered codec diverged")
		}
	}
}

// TestCodecRefusesBadOptions: options no codec can honor are an error
// from every built-in codec, never a silent fallback to another mode.
func TestCodecRefusesBadOptions(t *testing.T) {
	rows := []struct {
		name string
		opt  CodecOptions
	}{
		{"mode 7", CodecOptions{Mode: 7, Bound: 1e-3}},
		{"pwr bound 0", CodecOptions{Mode: CodecPointwiseRelative}},
		{"abs bound NaN", CodecOptions{Mode: CodecAbsolute, Bound: math.NaN()}},
	}
	data := []float64{0.5, -0.25, 0, 1}
	for _, name := range Codecs() {
		if strings.HasPrefix(name, "test-") || strings.HasPrefix(name, "example-") {
			continue // registered by tests, not built in
		}
		c, err := NewCodec(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			if _, err := c.Compress(nil, data, row.opt); err == nil {
				t.Errorf("%s: %s compressed without error", name, row.name)
			}
		}
	}
}

// TestRegisterCodecRejectsCollisionsAndNil covers the registry's
// error contract.
func TestRegisterCodecRejectsCollisionsAndNil(t *testing.T) {
	for _, name := range []string{"xor-c", "solution-a", ""} {
		if err := RegisterCodec(name, func() Codec { return testRawCodec{} }); err == nil {
			t.Fatalf("registering %q succeeded, want error", name)
		}
	}
	if err := RegisterCodec("test-nil", nil); err == nil {
		t.Fatal("nil factory accepted")
	}
	if err := RegisterCodec("test-dup", func() Codec { return testRawCodec{} }); err != nil {
		t.Fatal(err)
	}
	if err := RegisterCodec("test-dup", func() Codec { return testRawCodec{} }); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

// TestFidelityBoundHoldsForEveryCodec is the paper's promise (Eq. 11)
// against an oracle instead of the ledger against itself: for random
// circuits under lossy budgets, with every registered codec, the
// fidelity measured against the dense reference state is at least
// FidelityLowerBound — including runs whose boundaries requantize,
// each of which charges the ledger once more.
func TestFidelityBoundHoldsForEveryCodec(t *testing.T) {
	const n = 8
	ctx := context.Background()
	for _, name := range Codecs() {
		requantized := false
		for seed := int64(1); seed <= 3; seed++ {
			for _, budget := range []int64{256, 1024, 3072} {
				sim, err := New(n, WithCodec(name), WithRanks(2), WithBlockAmps(16),
					WithMemoryBudget(budget), WithWorkers(2), WithSeed(seed))
				if err != nil {
					t.Fatal(err)
				}
				ref := quantum.NewState(n)
				// Two runs: the second starts from a lossy state at rest.
				for run := int64(0); run < 2; run++ {
					cir := circuit.RandomCircuit(n, 50, 10*seed+run)
					res, err := sim.Run(ctx, cir)
					if err != nil && !errors.Is(err, ErrBudgetExceeded) {
						t.Fatal(err)
					}
					requantized = requantized || res.Stats.Escalations > 0
					ref.ApplyCircuit(cir)
					got, err := sim.FullState()
					if err != nil {
						t.Fatal(err)
					}
					norm, err := sim.Norm()
					if err != nil {
						t.Fatal(err)
					}
					fid := quantum.FidelityVec(ref.Amps, got) / math.Sqrt(norm)
					if bound := sim.FidelityLowerBound(); fid < bound-1e-9 {
						t.Fatalf("%s seed %d budget %d run %d: fidelity %.9f below the ledger's bound %.9f (level %d, %d escalations)",
							name, seed, budget, run, fid, bound, res.Stats.FinalLevel, res.Stats.Escalations)
					}
				}
				sim.Close()
			}
		}
		if !requantized {
			t.Errorf("%s: no budget ever forced a requantize; the property is vacuous", name)
		}
	}
}

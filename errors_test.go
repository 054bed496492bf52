package qcsim

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"qcsim/circuit"
	"qcsim/internal/compress"
	"qcsim/internal/compress/lossless"
	"qcsim/internal/core"
)

// dyingCodec fails every Decompress after the first dieAfter (0: never).
type dyingCodec struct {
	compress.Codec
	decodes  *atomic.Int64
	dieAfter int64
}

func (c *dyingCodec) Decompress(dst []float64, blob []byte) error {
	if n := c.decodes.Add(1); c.dieAfter > 0 && n > c.dieAfter {
		return compress.ErrCorrupt
	}
	return c.Codec.Decompress(dst, blob)
}

// TestSentinelErrors exercises every sentinel through its public
// trigger and checks errors.Is recognition.
func TestSentinelErrors(t *testing.T) {
	mustBe := func(t *testing.T, err, sentinel error) {
		t.Helper()
		if err == nil {
			t.Fatal("expected an error")
		}
		if !errors.Is(err, sentinel) {
			t.Fatalf("error %q does not wrap %q", err, sentinel)
		}
	}
	ctx := context.Background()
	sim, err := New(4, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("ErrBadConfig/qubits", func(t *testing.T) {
		_, err := New(0)
		mustBe(t, err, ErrBadConfig)
	})
	t.Run("ErrBadConfig/ranks", func(t *testing.T) {
		_, err := New(4, WithRanks(3))
		mustBe(t, err, ErrBadConfig)
	})
	t.Run("ErrBadConfig/levels", func(t *testing.T) {
		_, err := New(4, WithErrorLevels(1e-2, 1e-3))
		mustBe(t, err, ErrBadConfig)
	})
	t.Run("ErrBadConfig/noise", func(t *testing.T) {
		_, err := New(4, WithNoise(1.5))
		mustBe(t, err, ErrBadConfig)
	})
	// Settings the engine would only have tripped over mid-run (or never)
	// are refused at construction, by New on every backend and by
	// EstimateCircuit alike.
	for name, opt := range map[string]Option{
		"noise-nan":            WithNoise(math.NaN()),
		"noise-negative":       WithNoise(-0.1),
		"levels-above-one":     WithErrorLevels(0.5, 2),
		"levels-zero":          WithErrorLevels(0, 1e-3),
		"levels-negative":      WithErrorLevels(-1e-3, 1e-2),
		"levels-nan":           WithErrorLevels(math.NaN()),
		"levels-infinite":      WithErrorLevels(1e-3, math.Inf(1)),
		"levels-not-ascending": WithErrorLevels(1e-2, 1e-3),
	} {
		t.Run("ErrBadConfig/"+name, func(t *testing.T) {
			for _, backend := range []string{BackendCompressed, BackendMPS, BackendAuto} {
				_, err := New(4, WithMemoryBudget(1), WithBackend(backend), opt)
				mustBe(t, err, ErrBadConfig)
			}
			_, err := EstimateCircuit(4, circuit.GHZ(4), opt)
			mustBe(t, err, ErrBadConfig)
		})
	}
	t.Run("ErrBadConfig/nil-circuit", func(t *testing.T) {
		_, err := sim.Run(ctx, nil)
		mustBe(t, err, ErrBadConfig)
	})
	t.Run("ErrBadConfig/negative-shots", func(t *testing.T) {
		_, err := sim.Sample(-1)
		mustBe(t, err, ErrBadConfig)
	})
	t.Run("ErrUnknownCodec", func(t *testing.T) {
		_, err := New(4, WithCodec("no-such-codec"))
		mustBe(t, err, ErrUnknownCodec)
		_, err = NewCodec("no-such-codec")
		mustBe(t, err, ErrUnknownCodec)
	})
	t.Run("ErrCircuitMismatch", func(t *testing.T) {
		_, err := sim.Run(ctx, circuit.GHZ(5))
		mustBe(t, err, ErrCircuitMismatch)
	})
	t.Run("ErrInvalidQubit", func(t *testing.T) {
		_, err := sim.ProbabilityOne(4)
		mustBe(t, err, ErrInvalidQubit)
		_, err = sim.ExpectationZ(-1)
		mustBe(t, err, ErrInvalidQubit)
		_, err = sim.ExpectationZZ(0, 7)
		mustBe(t, err, ErrInvalidQubit)
		_, err = sim.Amplitude(1 << 10)
		mustBe(t, err, ErrInvalidQubit)
		mustBe(t, sim.SetBasisState(1<<10), ErrInvalidQubit)
		mustBe(t, sim.AssertClassical(9, 0, 1e-9), ErrInvalidQubit)
		mustBe(t, sim.AssertSuperposition(9, 1e-9), ErrInvalidQubit)
		mustBe(t, sim.AssertProduct(0, 9, 1e-9), ErrInvalidQubit)
		_, err = sim.MaxCutEnergy([]circuit.Edge{{U: 0, V: 11}})
		mustBe(t, err, ErrInvalidQubit)
		// A bad observable term is refused up front, not after the
		// batch has been cloned and run.
		ansatz := circuit.VQEAnsatz(4, 1)
		for _, obs := range []Observable{
			{Z: []ZTerm{{Q: 4, W: 1}}},
			{ZZ: []ZZTerm{{A: 0, B: -1, W: 1}}},
			{ZZ: []ZZTerm{{A: 2, B: 2, W: 1}}},
		} {
			_, err = sim.Gradient(ctx, ansatz, make([]float64, ansatz.NumParams()), obs)
			mustBe(t, err, ErrInvalidQubit)
		}
	})
	t.Run("Gradient/readout-failure-keeps-its-sentinel", func(t *testing.T) {
		// A codec that dies at the first decode of the readout — every
		// decode before it belongs to the run — is a corrupt blob, not a
		// bad qubit index.
		var decodes atomic.Int64
		codec := &dyingCodec{Codec: lossless.New(false), decodes: &decodes}
		eng, err := core.New(core.Config{Qubits: 5, BlockAmps: 8, Seed: 1, Lossless: codec})
		if err != nil {
			t.Fatal(err)
		}
		s := &Simulator{qubits: 5, be: compressedBackend{eng}}
		defer s.Close()
		edges := circuit.RandomRegularGraph(5, 2, 1)
		ansatz := circuit.QAOAAnsatzGraph(5, 1, edges)
		values := circuit.QAOAAngles(1, 1)
		res, err := s.Gradient(ctx, ansatz, values, MaxCutObservable(edges))
		if err != nil {
			t.Fatal(err)
		}
		readout := int64(res.Evaluations * 4) // every variant decodes its 4 blocks once
		codec.dieAfter = decodes.Load() - readout
		decodes.Store(0)
		_, err = s.Gradient(ctx, ansatz, values, MaxCutObservable(edges))
		mustBe(t, err, compress.ErrCorrupt)
		if errors.Is(err, ErrInvalidQubit) {
			t.Fatalf("a codec failure in the readout surfaced as ErrInvalidQubit: %v", err)
		}
	})
	t.Run("ErrBadCheckpoint", func(t *testing.T) {
		mustBe(t, sim.Load(bytes.NewReader([]byte("not a checkpoint"))), ErrBadCheckpoint)
	})
	t.Run("ErrBudgetExceeded", func(t *testing.T) {
		s, err := New(8, WithBlockAmps(32), WithMemoryBudget(1))
		if err != nil {
			t.Fatal(err)
		}
		// The budget is settled at every sweep boundary — escalate and
		// requantize until the state fits or no level is left — so the
		// first run whose boundary cannot be made to fit trips the
		// sentinel; nothing "climbs" across runs.
		_, err = s.Run(ctx, circuit.HadamardAll(8))
		mustBe(t, err, ErrBudgetExceeded)
	})
	t.Run("ErrStateTooLarge", func(t *testing.T) {
		old := maxFullStateQubits
		maxFullStateQubits = 3
		defer func() { maxFullStateQubits = old }()
		_, err := sim.FullState()
		mustBe(t, err, ErrStateTooLarge)
		// Sample streams from the compressed blocks and no longer hits
		// the FullState width guard.
		if _, err := sim.Sample(8); err != nil {
			t.Fatalf("streaming Sample tripped the FullState guard: %v", err)
		}
	})
	t.Run("ErrStaleSampler", func(t *testing.T) {
		s, err := New(4, WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		sp, err := s.Sampler()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sp.Sample(4); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(ctx, circuit.GHZ(4)); err != nil {
			t.Fatal(err)
		}
		_, err = sp.Sample(4)
		mustBe(t, err, ErrStaleSampler)
	})
	t.Run("ErrUnsupportedOp", func(t *testing.T) {
		s, err := New(4, WithBackend(BackendMPS), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		_, err = s.Run(ctx, circuit.New(4).Measure(0))
		mustBe(t, err, ErrUnsupportedOp)
	})
	t.Run("context.Canceled", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		_, err := sim.Run(cctx, circuit.GHZ(4))
		mustBe(t, err, context.Canceled)
	})
}

// TestMalformedCircuitSentinels: a hand-assembled circuit with a bad
// operand reports ErrInvalidQubit, and one with a gate kind no engine
// knows ErrBadConfig, on every backend and before any gate runs.
func TestMalformedCircuitSentinels(t *testing.T) {
	h := func(target int, controls ...int) circuit.Gate {
		return circuit.Gate{Name: "h", Target: target, Controls: controls, U: circuit.MatH}
	}
	cases := []struct {
		name string
		gate circuit.Gate
		want error
	}{
		{"target-negative", h(-1), ErrInvalidQubit},
		{"target-past-register", h(4), ErrInvalidQubit},
		{"control-is-target", h(2, 2), ErrInvalidQubit},
		{"unknown-kind", circuit.Gate{Kind: 7, Name: "h", Target: 1, U: circuit.MatH}, ErrBadConfig},
	}
	for _, tc := range cases {
		for _, backend := range []string{BackendCompressed, BackendMPS, BackendAuto} {
			t.Run(tc.name+"/"+backend, func(t *testing.T) {
				sim, err := New(4, WithBackend(backend), WithSeed(1))
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Close()
				bad := &circuit.Circuit{N: 4, Gates: []circuit.Gate{h(0), tc.gate}}
				if _, err := sim.Run(context.Background(), bad); !errors.Is(err, tc.want) {
					t.Fatalf("Run: %v does not wrap %v", err, tc.want)
				}
				if n := sim.GatesRun(); n != 0 {
					t.Fatalf("GatesRun = %d after a refused run", n)
				}
			})
		}
	}
}

// TestObservableRefusalsAcrossBackends: a term on a qubit outside the
// register or a ZZ term on one qubit — ExpectationZZ(q, q), a self-loop
// edge — is ErrInvalidQubit on every backend: the facade checks the
// terms once for all of them.
func TestObservableRefusalsAcrossBackends(t *testing.T) {
	for _, backend := range []string{BackendCompressed, BackendMPS, BackendAuto} {
		t.Run(backend, func(t *testing.T) {
			sim, err := New(4, WithBackend(backend), WithSeed(1), WithBlockAmps(4))
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			if _, err := sim.Run(context.Background(), circuit.GHZ(4)); err != nil {
				t.Fatal(err)
			}
			calls := map[string]func() (float64, error){
				"ExpectationZ(4)":     func() (float64, error) { return sim.ExpectationZ(4) },
				"ExpectationZZ(2, 2)": func() (float64, error) { return sim.ExpectationZZ(2, 2) },
				"ExpectationZZ(0, 4)": func() (float64, error) { return sim.ExpectationZZ(0, 4) },
				"MaxCutEnergy self-loop": func() (float64, error) {
					return sim.MaxCutEnergy([]circuit.Edge{{U: 0, V: 1}, {U: 3, V: 3}})
				},
			}
			for name, call := range calls {
				if _, err := call(); !errors.Is(err, ErrInvalidQubit) {
					t.Errorf("%s: %v, want ErrInvalidQubit", name, err)
				}
			}
		})
	}
}

// TestAssertionSentinels: the statistical assertions report typed
// errors at the facade — the engine's untyped messages used to pass
// through errors.Is unrecognized.
func TestAssertionSentinels(t *testing.T) {
	ctx := context.Background()
	fresh := func(t *testing.T) *Simulator {
		t.Helper()
		sim, err := New(2, WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sim.Close() })
		return sim
	}

	t.Run("classical-failure", func(t *testing.T) {
		err := fresh(t).AssertClassical(0, 1, 1e-6) // |00⟩ reads 0, not 1
		if !errors.Is(err, ErrAssertionFailed) {
			t.Fatalf("error %q does not wrap ErrAssertionFailed", err)
		}
	})
	t.Run("superposition-failure", func(t *testing.T) {
		err := fresh(t).AssertSuperposition(0, 0.01) // |0⟩ is classical
		if !errors.Is(err, ErrAssertionFailed) {
			t.Fatalf("error %q does not wrap ErrAssertionFailed", err)
		}
	})
	t.Run("product-failure", func(t *testing.T) {
		sim := fresh(t)
		if _, err := sim.Run(ctx, circuit.New(2).H(0).CNOT(0, 1)); err != nil {
			t.Fatal(err)
		}
		err := sim.AssertProduct(0, 1, 0.01) // a Bell pair is maximally entangled
		if !errors.Is(err, ErrAssertionFailed) {
			t.Fatalf("error %q does not wrap ErrAssertionFailed", err)
		}
	})
	t.Run("degenerate-pair", func(t *testing.T) {
		// a == b passes the per-qubit range checks but is not a pair.
		err := fresh(t).AssertProduct(1, 1, 0.01)
		if !errors.Is(err, ErrInvalidQubit) {
			t.Fatalf("error %q does not wrap ErrInvalidQubit", err)
		}
	})
	t.Run("passing-assertions-stay-nil", func(t *testing.T) {
		sim := fresh(t)
		if err := sim.AssertClassical(0, 0, 1e-9); err != nil {
			t.Fatalf("AssertClassical on |00⟩: %v", err)
		}
		if err := sim.AssertProduct(0, 1, 1e-9); err != nil {
			t.Fatalf("AssertProduct on |00⟩: %v", err)
		}
	})
}

// TestAssertionArgumentsRefused: a NaN tolerance fails every comparison,
// so the assertion would pass vacuously, a negative one can never pass,
// and a value other than 0 or 1 would read as 1, so the facade refuses
// all three with ErrBadConfig. The state is a Bell pair on qubits 0 and 1 with qubit 2
// in |1⟩; each method keeps one valid pass and one valid failure.
func TestAssertionArgumentsRefused(t *testing.T) {
	sim, err := New(3, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := sim.Run(context.Background(), circuit.New(3).H(0).CNOT(0, 1).X(2)); err != nil {
		t.Fatal(err)
	}
	nan := math.NaN()
	for _, tc := range []struct {
		name string
		err  error
		want error // nil: the assertion holds
	}{
		{"classical/pass", sim.AssertClassical(2, 1, 0.01), nil},
		{"classical/fail", sim.AssertClassical(2, 0, 0.01), ErrAssertionFailed},
		{"classical/nan-tol", sim.AssertClassical(0, 0, nan), ErrBadConfig},
		{"classical/negative-tol", sim.AssertClassical(2, 1, -0.1), ErrBadConfig},
		{"classical/value-7", sim.AssertClassical(2, 7, 0.01), ErrBadConfig},
		{"classical/value-minus-1", sim.AssertClassical(2, -1, 0.01), ErrBadConfig},
		{"superposition/pass", sim.AssertSuperposition(0, 0.01), nil},
		{"superposition/fail", sim.AssertSuperposition(2, 0.01), ErrAssertionFailed},
		{"superposition/nan-tol", sim.AssertSuperposition(2, nan), ErrBadConfig},
		{"superposition/negative-tol", sim.AssertSuperposition(0, -0.1), ErrBadConfig},
		{"product/pass", sim.AssertProduct(0, 2, 0.01), nil},
		{"product/fail", sim.AssertProduct(0, 1, 0.01), ErrAssertionFailed},
		{"product/nan-tol", sim.AssertProduct(0, 1, nan), ErrBadConfig},
		{"product/negative-tol", sim.AssertProduct(0, 2, -0.1), ErrBadConfig},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.want == nil {
				if tc.err != nil {
					t.Fatalf("valid assertion failed: %v", tc.err)
				}
				return
			}
			if !errors.Is(tc.err, tc.want) {
				t.Fatalf("error %v, want %v", tc.err, tc.want)
			}
		})
	}
}

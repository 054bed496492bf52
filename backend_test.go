package qcsim

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"qcsim/circuit"
	"qcsim/internal/mps"
)

// TestWithBackendValidation covers the option surface: names, bond-dim
// range, and combinations the mps backend cannot honor.
func TestWithBackendValidation(t *testing.T) {
	if _, err := New(4, WithBackend("tensor-train")); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown backend: %v", err)
	}
	if _, err := New(4, WithBackend(BackendMPS), WithBondDim(1)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bond dim 1: %v", err)
	}
	if _, err := New(4, WithBackend(BackendMPS), WithNoise(0.1)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("mps+noise: %v", err)
	}
	if _, err := New(0, WithBackend(BackendMPS)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("mps 0 qubits: %v", err)
	}
	if _, err := New(0, WithBackend(BackendAuto)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("auto 0 qubits: %v", err)
	}
	// Auto fails fast on configs the compressed candidate could never
	// use, without allocating its state.
	if _, err := New(44, WithBackend(BackendAuto), WithRanks(3)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("auto bad ranks: %v", err)
	}
	// The explicit mps path validates the (inert) compressed-engine
	// knobs too — a config typo must not pass or fail depending on the
	// backend name it rides in with.
	if _, err := New(10, WithBackend(BackendMPS), WithRanks(3)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("mps bad ranks: %v", err)
	}
	for _, name := range []string{"", BackendCompressed, BackendMPS, BackendAuto} {
		if _, err := New(4, WithBackend(name)); err != nil {
			t.Fatalf("backend %q: %v", name, err)
		}
	}
}

// TestBackendReporting pins Backend(): eager backends report
// immediately, auto reports "auto" until its first circuit.
func TestBackendReporting(t *testing.T) {
	ctx := context.Background()
	sim, _ := New(4)
	if got := sim.Backend(); got != BackendCompressed {
		t.Fatalf("default backend %q", got)
	}
	sim, _ = New(4, WithBackend(BackendMPS))
	if got := sim.Backend(); got != BackendMPS {
		t.Fatalf("mps backend %q", got)
	}
	sim, _ = New(4, WithBackend(BackendAuto))
	if got := sim.Backend(); got != BackendAuto {
		t.Fatalf("pending auto backend %q", got)
	}
	if _, err := sim.Run(ctx, circuit.GHZ(4)); err != nil {
		t.Fatal(err)
	}
	if got := sim.Backend(); got != BackendMPS {
		t.Fatalf("auto after GHZ picked %q, want mps", got)
	}
}

// TestAutoSelection exercises the decision table: low-entanglement and
// MPS-compatible circuits pick mps; deep entanglement, measurement,
// multi-control, noise, and the uncompressed baseline pick compressed.
func TestAutoSelection(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		opts []Option
		cir  *circuit.Circuit
		want string
	}{
		{"ghz", nil, circuit.GHZ(10), BackendMPS},
		{"deep-brickwork", []Option{WithBondDim(4)},
			circuit.Brickwork(10, 8, 1), BackendCompressed},
		{"shallow-brickwork", []Option{WithBondDim(4)},
			circuit.Brickwork(10, 2, 1), BackendMPS},
		{"measurement", nil, circuit.New(10).H(0).Measure(0), BackendCompressed},
		{"toffoli", nil, circuit.New(10).Toffoli(0, 1, 2), BackendCompressed},
		{"noise", []Option{WithNoise(0.01)}, circuit.GHZ(10), BackendCompressed},
		{"uncompressed", []Option{WithUncompressed(true)}, circuit.GHZ(10), BackendCompressed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := New(10, append([]Option{WithBackend(BackendAuto), WithSeed(1)}, tc.opts...)...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(ctx, tc.cir); err != nil {
				t.Fatal(err)
			}
			if got := sim.Backend(); got != tc.want {
				t.Fatalf("auto picked %q, want %q", got, tc.want)
			}
		})
	}
}

// TestMPSUnsupportedAtFacade is the facade-level regression suite for
// the typed rejection contract: each operation the mps backend cannot
// run reports ErrUnsupportedOp through errors.Is, carrying the
// structured *mps.UnsupportedOpError.
func TestMPSUnsupportedAtFacade(t *testing.T) {
	ctx := context.Background()
	newMPS := func(t *testing.T) *Simulator {
		sim, err := New(4, WithBackend(BackendMPS), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	check := func(t *testing.T, err error, wantOp string) {
		t.Helper()
		if err == nil {
			t.Fatal("expected ErrUnsupportedOp, got nil")
		}
		if !errors.Is(err, ErrUnsupportedOp) {
			t.Fatalf("error %q does not wrap ErrUnsupportedOp", err)
		}
		var ue *mps.UnsupportedOpError
		if !errors.As(err, &ue) {
			t.Fatalf("error %q carries no *mps.UnsupportedOpError", err)
		}
		if ue.Op != wantOp {
			t.Fatalf("op %q, want %q", ue.Op, wantOp)
		}
	}
	t.Run("measure", func(t *testing.T) {
		sim := newMPS(t)
		res, err := sim.Run(ctx, circuit.New(4).H(0).Measure(0))
		check(t, err, "measure")
		if res == nil || res.Gates != 1 {
			t.Fatalf("prefix before the rejected gate should be kept: %+v", res)
		}
	})
	t.Run("multi-control", func(t *testing.T) {
		sim := newMPS(t)
		_, err := sim.Run(ctx, circuit.New(4).Toffoli(0, 1, 2))
		check(t, err, "multi-control")
	})
	t.Run("assert-classical", func(t *testing.T) {
		check(t, newMPS(t).AssertClassical(0, 0, 1e-9), "assert")
	})
	t.Run("assert-superposition", func(t *testing.T) {
		check(t, newMPS(t).AssertSuperposition(0, 1e-9), "assert")
	})
	t.Run("assert-product", func(t *testing.T) {
		check(t, newMPS(t).AssertProduct(0, 1, 1e-9), "assert")
	})
	t.Run("save", func(t *testing.T) {
		check(t, newMPS(t).Save(&bytes.Buffer{}), "checkpoint")
	})
	t.Run("load", func(t *testing.T) {
		err := newMPS(t).Load(bytes.NewReader(nil))
		check(t, err, "checkpoint")
		if errors.Is(err, ErrBadCheckpoint) {
			t.Fatal("unsupported checkpointing must not masquerade as a corrupt checkpoint")
		}
	})

	// Batches run in this process on the compressed engine: the mps
	// backend refuses them, and so does the TCP transport — before any
	// worker is spawned, which the nonexistent worker binary proves.
	ansatz := circuit.VQEAnsatz(4, 1)
	values := make([]float64, ansatz.NumParams())
	obs := Observable{Z: []ZTerm{{Q: 0, W: 1}}}
	newTCP := func(t *testing.T) *Simulator {
		sim, err := New(4, WithTransport(TransportTCP), WithWorkerCommand("/nonexistent/qcrank"), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	for _, b := range []struct {
		name  string
		build func(*testing.T) *Simulator
	}{{"mps", newMPS}, {"tcp", newTCP}} {
		t.Run(b.name+"-run-batch", func(t *testing.T) {
			_, err := b.build(t).RunBatch(ctx, ansatz, [][]float64{values})
			check(t, err, "batch")
		})
		t.Run(b.name+"-gradient", func(t *testing.T) {
			_, err := b.build(t).Gradient(ctx, ansatz, values, obs)
			check(t, err, "batch")
		})
	}
}

// TestMPSStaleSampler pins the staleness contract on the mps backend:
// any mutation (Run, Reset, SetBasisState) invalidates existing
// samplers.
func TestMPSStaleSampler(t *testing.T) {
	ctx := context.Background()
	sim, err := New(6, WithBackend(BackendMPS), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(ctx, circuit.GHZ(6)); err != nil {
		t.Fatal(err)
	}
	sp, err := sim.Sampler()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Sample(8); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(ctx, circuit.New(6).X(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Sample(8); !errors.Is(err, ErrStaleSampler) {
		t.Fatalf("after Run: %v", err)
	}
	sp2, _ := sim.Sampler()
	if err := sim.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := sp2.Sample(8); !errors.Is(err, ErrStaleSampler) {
		t.Fatalf("after Reset: %v", err)
	}
	sp3, _ := sim.Sampler()
	if err := sim.SetBasisState(3); err != nil {
		t.Fatal(err)
	}
	if _, err := sp3.Sample(8); !errors.Is(err, ErrStaleSampler) {
		t.Fatalf("after SetBasisState: %v", err)
	}
}

// TestMPSCancellation: the mps backend honors the same gate-boundary
// cancellation contract as the compressed engine.
func TestMPSCancellation(t *testing.T) {
	sim, err := New(8, WithBackend(BackendMPS), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stopAfter := 5
	seen := 0
	res, err := sim.RunProgress(ctx, circuit.GHZ(8), func(ev ProgressEvent) {
		seen++
		if seen == stopAfter {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if res.Gates != stopAfter {
		t.Fatalf("completed prefix %d, want %d", res.Gates, stopAfter)
	}
	if sim.GatesRun() != stopAfter {
		t.Fatalf("GatesRun %d after cancellation", sim.GatesRun())
	}
}

// TestMPSWideRegister is the acceptance scenario: a 40-qubit GHZ on the
// mps backend runs in milliseconds inside kilobytes, samples its exact
// two-outcome support, and answers amplitude and correlator queries —
// all structurally impossible for a 16 TB dense state.
func TestMPSWideRegister(t *testing.T) {
	sim, err := New(40, WithBackend(BackendMPS), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), circuit.GHZ(40))
	if err != nil {
		t.Fatal(err)
	}
	if res.FidelityLowerBound != 1 {
		t.Fatalf("GHZ should not truncate: ledger %v", res.FidelityLowerBound)
	}
	if res.Footprint > 1<<20 {
		t.Fatalf("footprint %d bytes, want well under 1 MB", res.Footprint)
	}
	shots, err := sim.Sample(1024)
	if err != nil {
		t.Fatal(err)
	}
	all := uint64(1)<<40 - 1
	zeros, ones := 0, 0
	for _, x := range shots {
		switch x {
		case 0:
			zeros++
		case all:
			ones++
		default:
			t.Fatalf("draw %b outside the GHZ support", x)
		}
	}
	if zeros == 0 || ones == 0 {
		t.Fatalf("degenerate split %d/%d", zeros, ones)
	}
	a, err := sim.Amplitude(all)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cAbs(a)-1/math.Sqrt2) > 1e-12 {
		t.Fatalf("⟨1...1|ψ⟩ = %v", a)
	}
	zz, err := sim.ExpectationZZ(0, 39)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(zz-1) > 1e-12 {
		t.Fatalf("⟨Z_0 Z_39⟩ = %v", zz)
	}
	if _, err := sim.FullState(); !errors.Is(err, ErrStateTooLarge) {
		t.Fatalf("FullState at 40 qubits: %v", err)
	}
}

// TestAutoInspectionBeforeRun: inspecting a pending auto simulator is
// answered through a provisional engine (no full-state allocation even
// at 40 qubits) WITHOUT closing the backend decision — the first Run
// still chooses from its circuit.
func TestAutoInspectionBeforeRun(t *testing.T) {
	ctx := context.Background()
	sim, err := New(40, WithBackend(BackendAuto), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	a, err := sim.Amplitude(0)
	if err != nil {
		t.Fatal(err)
	}
	if a != 1 {
		t.Fatalf("⟨0|0⟩ = %v", a)
	}
	if got := sim.Backend(); got != BackendAuto {
		t.Fatalf("inspection closed the auto decision early: %q", got)
	}

	// Regression (code review): a pre-Run inspection must not latch
	// the engine — a measurement circuit after Snapshot() still picks
	// the compressed backend and runs.
	sim2, err := New(10, WithBackend(BackendAuto), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	_ = sim2.Snapshot()
	res, err := sim2.Run(ctx, circuit.New(10).H(0).Measure(0))
	if err != nil {
		t.Fatalf("measurement circuit after pre-run inspection: %v", err)
	}
	if sim2.Backend() != BackendCompressed || len(res.Measurements) != 1 {
		t.Fatalf("backend %q, measurements %v", sim2.Backend(), res.Measurements)
	}

	// A basis state set before the decision survives the engine swap.
	sim3, err := New(6, WithBackend(BackendAuto), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim3.SetBasisState(5); err != nil {
		t.Fatal(err)
	}
	if _, err := sim3.Run(ctx, circuit.New(6).Measure(0)); err != nil {
		t.Fatal(err)
	}
	if sim3.Backend() != BackendCompressed {
		t.Fatalf("backend %q", sim3.Backend())
	}
	if ms := sim3.Measurements(); len(ms) != 1 || ms[0] != 1 {
		t.Fatalf("measuring bit 0 of |000101⟩ gave %v, want [1]", ms)
	}

	// An empty circuit is no evidence: it must not close the decision.
	sim5, err := New(10, WithBackend(BackendAuto), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim5.Run(ctx, circuit.New(10)); err != nil {
		t.Fatal(err)
	}
	if got := sim5.Backend(); got != BackendAuto {
		t.Fatalf("zero-gate run closed the auto decision: %q", got)
	}
	if _, err := sim5.Run(ctx, circuit.New(10).H(0).Measure(0)); err != nil {
		t.Fatalf("measurement circuit after an empty run: %v", err)
	}
	if got := sim5.Backend(); got != BackendCompressed {
		t.Fatalf("backend %q", got)
	}

	// Samplers built on the provisional engine go stale when the
	// decision replaces it.
	sim4, err := New(6, WithBackend(BackendAuto), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sim4.Sampler()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim4.Run(ctx, circuit.New(6).H(0).Measure(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Sample(4); !errors.Is(err, ErrStaleSampler) {
		t.Fatalf("provisional-engine sampler after rebuild: %v", err)
	}
}

// TestAutoCompressedOnlyOpsResolve: operations only the compressed
// engine supports, invoked while the auto decision is open, close the
// decision in its favor instead of failing on the provisional MPS —
// regression for `qcsim -backend auto -resume state.ckp`, which loads
// a checkpoint before any Run.
func TestAutoCompressedOnlyOpsResolve(t *testing.T) {
	ctx := context.Background()
	saver, err := New(6, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := saver.Run(ctx, circuit.GHZ(6)); err != nil {
		t.Fatal(err)
	}
	var ckp bytes.Buffer
	if err := saver.Save(&ckp); err != nil {
		t.Fatal(err)
	}

	sim, err := New(6, WithBackend(BackendAuto), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	_ = sim.Snapshot() // provisional inspection must not block the load
	if err := sim.Load(bytes.NewReader(ckp.Bytes())); err != nil {
		t.Fatalf("auto -resume workflow: %v", err)
	}
	if got := sim.Backend(); got != BackendCompressed {
		t.Fatalf("load resolved auto to %q", got)
	}
	a, err := sim.Amplitude(1<<6 - 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cAbs(a)-1/math.Sqrt2) > 1e-12 {
		t.Fatalf("restored GHZ amplitude %v", a)
	}

	sim2, err := New(6, WithBackend(BackendAuto), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := sim2.AssertClassical(0, 0, 1e-9); err != nil {
		t.Fatalf("assertion on an undecided auto simulator: %v", err)
	}
	if got := sim2.Backend(); got != BackendCompressed {
		t.Fatalf("assert resolved auto to %q", got)
	}
}

// TestMPSRegisterCap: the uint64 outcome/index API caps every backend
// at 62 qubits; the mps path must enforce it itself (regression for a
// silent bit-drop past 64 qubits).
func TestMPSRegisterCap(t *testing.T) {
	if _, err := New(63, WithBackend(BackendMPS)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("63 qubits: %v", err)
	}
	if _, err := New(100, WithBackend(BackendMPS)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("100 qubits: %v", err)
	}
	if _, err := New(62, WithBackend(BackendMPS)); err != nil {
		t.Fatalf("62 qubits should construct: %v", err)
	}
}

// TestMPSLedgerUnderTruncation: a circuit past the bond budget degrades
// with a ledger drop (like the compressed engine's lossy escalation),
// not an error.
func TestMPSLedgerUnderTruncation(t *testing.T) {
	sim, err := New(10, WithBackend(BackendMPS), WithBondDim(2), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(context.Background(), circuit.Brickwork(10, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.FidelityLowerBound >= 1 || res.FidelityLowerBound <= 0 {
		t.Fatalf("ledger %v, want in (0,1)", res.FidelityLowerBound)
	}
	if res.Stats.Escalations == 0 {
		t.Fatal("truncating SVDs should surface in Stats.Escalations")
	}
}

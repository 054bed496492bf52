package qcsim

import (
	"context"
	"errors"
	"math"
	"testing"

	"qcsim/circuit"
	"qcsim/internal/compress/szlike"
	"qcsim/internal/core"
)

// TestRunBatchMatchesSequentialRuns is the satellite property: a
// K-binding RunBatch is bit-identical to K sequential Runs of the bound
// circuits on fresh simulators carrying the per-variant seeds — across
// geometries, worker counts, codecs, and sweep settings. Run under
// -race in CI it doubles as the race check on the facade batch path.
func TestRunBatchMatchesSequentialRuns(t *testing.T) {
	const qubits, p, k = 6, 1, 3
	ansatz := circuit.QAOAAnsatz(qubits, p, 2)
	bindings := make([][]float64, k)
	for v := range bindings {
		bindings[v] = circuit.QAOAAngles(p, int64(2+v))
	}
	cases := []struct {
		name string
		opts []Option
	}{
		{"solo-rank", []Option{WithRanks(1), WithBlockAmps(16), WithWorkers(1)}},
		{"multi-rank", []Option{WithRanks(2), WithBlockAmps(8), WithWorkers(3)}},
		{"four-ranks", []Option{WithRanks(4), WithBlockAmps(4), WithWorkers(2)}},
		{"sweeps-off", []Option{WithRanks(1), WithBlockAmps(16), WithWorkers(2), WithSweeps(false)}},
		{"lossy-szb", []Option{WithRanks(1), WithBlockAmps(16), WithWorkers(2),
			WithMemoryBudget(512), WithCodec("sz-b")}},
		{"lossy-xord", []Option{WithRanks(2), WithBlockAmps(8), WithWorkers(1),
			WithMemoryBudget(512), WithCodec("xor-d")}},
		// K noise trajectories in lockstep, each from its own stream.
		{"noisy", []Option{WithRanks(2), WithBlockAmps(8), WithWorkers(2), WithNoise(0.1)}},
		// Each variant's Paulis land elsewhere in the ZZ units and move
		// its sweep boundaries, hence its truncations.
		{"noisy-lossy", []Option{WithRanks(2), WithBlockAmps(8), WithWorkers(2), WithNoise(0.3),
			WithMemoryBudget(512), WithCodec("sz-b")}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]Option{WithSeed(5)}, tc.opts...)
			sim, err := New(qubits, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			// A tight lossy budget may legitimately end over budget — the
			// batch must then report it exactly like the solo runs do.
			results, err := sim.RunBatch(context.Background(), ansatz, bindings)
			if err != nil && !errors.Is(err, ErrBudgetExceeded) {
				t.Fatal(err)
			}
			batchOver := errors.Is(err, ErrBudgetExceeded)
			variants := sim.BatchVariants()
			if len(results) != k || len(variants) != k {
				t.Fatalf("got %d results / %d variants, want %d", len(results), len(variants), k)
			}
			for v := 0; v < k; v++ {
				soloOpts := append([]Option{WithSeed(core.VariantSeed(5, v))}, tc.opts...)
				solo, err := New(qubits, soloOpts...)
				if err != nil {
					t.Fatal(err)
				}
				defer solo.Close()
				bound, err := ansatz.Bind(bindings[v])
				if err != nil {
					t.Fatal(err)
				}
				soloRes, err := solo.Run(context.Background(), bound)
				if err != nil && !errors.Is(err, ErrBudgetExceeded) {
					t.Fatal(err)
				}
				if v == 0 && batchOver != errors.Is(err, ErrBudgetExceeded) {
					t.Fatalf("over-budget disagreement: batch %v vs solo %v", batchOver, err)
				}
				bs, err := variants[v].FullState()
				if err != nil {
					t.Fatal(err)
				}
				ss, err := solo.FullState()
				if err != nil {
					t.Fatal(err)
				}
				for i := range bs {
					// Bits, not ==, which cannot see the sign of a zero.
					if !sameBits(bs[i], ss[i]) {
						t.Fatalf("variant %d amplitude %d: batch %v vs solo %v", v, i, bs[i], ss[i])
					}
				}
				if results[v].Gates != soloRes.Gates {
					t.Fatalf("variant %d gates: %d vs %d", v, results[v].Gates, soloRes.Gates)
				}
				if results[v].FidelityLowerBound != soloRes.FidelityLowerBound {
					t.Fatalf("variant %d ledger: %v vs %v", v, results[v].FidelityLowerBound, soloRes.FidelityLowerBound)
				}
				if results[v].Stats.VariantCount != k {
					t.Fatalf("variant %d VariantCount = %d", v, results[v].Stats.VariantCount)
				}
			}
		})
	}
}

// sameBits reports whether two amplitudes are equal bit for bit.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) && math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestRunBatchLeavesParentUntouched: the batch runs on clones; the
// parent simulator's state and stats stay put, and its seed stream is
// not consumed.
func TestRunBatchLeavesParentUntouched(t *testing.T) {
	sim, err := New(5, WithSeed(9), WithBlockAmps(8))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	ansatz := circuit.VQEAnsatz(5, 1)
	before := sim.Snapshot()
	if _, err := sim.RunBatch(context.Background(), ansatz,
		[][]float64{make([]float64, ansatz.NumParams()), quaverVals(ansatz.NumParams())}); err != nil {
		t.Fatal(err)
	}
	after := sim.Snapshot()
	if after.GatesRun != before.GatesRun {
		t.Fatalf("batch mutated parent gate count: %d -> %d", before.GatesRun, after.GatesRun)
	}
	if amp, err := sim.Amplitude(0); err != nil || amp != 1 {
		t.Fatalf("parent state mutated: amp=%v err=%v", amp, err)
	}
}

func quaverVals(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 0.1 * float64(i+1)
	}
	return vals
}

// TestBatchVariantsLifecycle: variants stay inspectable until the next
// batch, and parent Close closes them.
func TestBatchVariantsLifecycle(t *testing.T) {
	sim, err := New(4, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	ansatz := circuit.VQEAnsatz(4, 1)
	if _, err := sim.RunBatch(context.Background(), ansatz,
		[][]float64{quaverVals(ansatz.NumParams())}); err != nil {
		t.Fatal(err)
	}
	vs := sim.BatchVariants()
	if len(vs) != 1 {
		t.Fatalf("%d variants retained", len(vs))
	}
	if _, err := vs[0].ExpectationZZ(0, 1); err != nil {
		t.Fatalf("variant not inspectable: %v", err)
	}
	if err := sim.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := vs[0].Norm(); !errors.Is(err, ErrClosed) {
		t.Fatalf("variant survived parent Close: %v", err)
	}
	if sim.BatchVariants() != nil {
		t.Fatal("closed simulator still lists variants")
	}
}

// TestGradientMatchesFiniteDifference: the parameter-shift gradient of
// the MAXCUT energy must agree with a central finite difference to
// numerical accuracy.
func TestGradientMatchesFiniteDifference(t *testing.T) {
	const qubits, p = 6, 1
	edges := circuit.RandomRegularGraph(qubits, 4, 7)
	ansatz := circuit.QAOAAnsatzGraph(qubits, p, edges)
	values := circuit.QAOAAngles(p, 7)
	obs := MaxCutObservable(edges)

	sim, err := New(qubits, WithSeed(1), WithBlockAmps(16))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	res, err := sim.Gradient(context.Background(), ansatz, values, obs)
	if err != nil {
		t.Fatal(err)
	}
	occs := ansatz.ParamOccurrences()
	if res.Evaluations != 1+2*len(occs) {
		t.Fatalf("Evaluations = %d, want %d", res.Evaluations, 1+2*len(occs))
	}

	energyAt := func(vals []float64) float64 {
		s, err := New(qubits, WithSeed(1), WithBlockAmps(16))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		bound, err := ansatz.Bind(vals)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(context.Background(), bound); err != nil {
			t.Fatal(err)
		}
		e, err := s.MaxCutEnergy(edges)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	if got := energyAt(values); math.Abs(got-res.Energy) > 1e-9 {
		t.Fatalf("Energy = %v, direct evaluation %v", res.Energy, got)
	}
	const eps = 1e-5
	for i := range values {
		up := append([]float64(nil), values...)
		dn := append([]float64(nil), values...)
		up[i] += eps
		dn[i] -= eps
		fd := (energyAt(up) - energyAt(dn)) / (2 * eps)
		if math.Abs(fd-res.Grad[i]) > 1e-4 {
			t.Fatalf("grad[%d] = %v, finite difference %v", i, res.Grad[i], fd)
		}
	}
}

// TestGradientMatchesVariantReadouts: Gradient reads all its variants
// in one K-state pass; the energy and gradient must be, bit for bit,
// what the same batch gives when each retained variant is read out on
// its own and the shifts are combined by hand.
func TestGradientMatchesVariantReadouts(t *testing.T) {
	const qubits, p = 5, 1
	edges := circuit.RandomRegularGraph(qubits, 2, 3)
	ansatz := circuit.QAOAAnsatzGraph(qubits, p, edges)
	values := circuit.QAOAAngles(p, 3)
	obs := MaxCutObservable(edges)
	obs.Z = []ZTerm{{Q: 4, W: 0.25}, {Q: 0, W: -1.5}}
	ctx := context.Background()
	for _, opts := range [][]Option{
		{WithRanks(2), WithBlockAmps(4), WithWorkers(3)},
		{WithBlockAmps(8), WithWorkers(1), WithMemoryBudget(128)},
	} {
		sim, err := New(qubits, append([]Option{WithSeed(1)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		res, err := sim.Gradient(ctx, ansatz, values, obs)
		if err != nil {
			t.Fatal(err)
		}

		occs := ansatz.ParamOccurrences()
		base, err := ansatz.Bind(values)
		if err != nil {
			t.Fatal(err)
		}
		circuits := []*circuit.Circuit{base}
		for _, occ := range occs {
			for _, shift := range []float64{math.Pi / 2, -math.Pi / 2} {
				c, err := ansatz.BindShift(values, occ.Gate, shift)
				if err != nil {
					t.Fatal(err)
				}
				circuits = append(circuits, c)
			}
		}
		engines, _, err := sim.runBatchCircuits(ctx, circuits)
		sim.retainBatch(engines)
		if err != nil {
			t.Fatal(err)
		}
		energies := make([]float64, len(circuits))
		for v, variant := range sim.BatchVariants() {
			e, err := variant.be.(compressedBackend).DiagonalExpectation(obs.Z, obs.ZZ)
			if err != nil {
				t.Fatal(err)
			}
			energies[v] = e + obs.Const
		}
		grad := make([]float64, ansatz.NumParams())
		for i, occ := range occs {
			grad[occ.Index] += float64(occ.Scale * (energies[1+2*i] - energies[2+2*i]) / 2)
		}
		if math.Float64bits(res.Energy) != math.Float64bits(energies[0]) {
			t.Fatalf("Energy = %v, variant 0 read alone gives %v", res.Energy, energies[0])
		}
		for i := range grad {
			if math.Float64bits(res.Grad[i]) != math.Float64bits(grad[i]) {
				t.Fatalf("Grad[%d] = %v, the variants read one at a time give %v", i, res.Grad[i], grad[i])
			}
		}
	}
}

// TestRunBatchOnMPSUnsupported: lockstep batching is compressed-only.
func TestRunBatchOnMPSUnsupported(t *testing.T) {
	sim, err := New(4, WithBackend(BackendMPS))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	ansatz := circuit.VQEAnsatz(4, 1)
	if _, err := sim.RunBatch(context.Background(), ansatz,
		[][]float64{make([]float64, ansatz.NumParams())}); !errors.Is(err, ErrUnsupportedOp) {
		t.Fatalf("RunBatch on mps: got %v, want ErrUnsupportedOp", err)
	}
}

// TestRunBatchValidation covers the facade-level rejections.
func TestRunBatchValidation(t *testing.T) {
	sim, err := New(4, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	ansatz := circuit.VQEAnsatz(4, 1)
	if _, err := sim.RunBatch(context.Background(), nil, [][]float64{{}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil circuit: %v", err)
	}
	if _, err := sim.RunBatch(context.Background(), ansatz, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty bindings: %v", err)
	}
	if _, err := sim.RunBatch(context.Background(), ansatz, [][]float64{{0.1}}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("short binding: %v", err)
	}
	if _, err := sim.RunBatch(context.Background(), circuit.VQEAnsatz(5, 1),
		[][]float64{make([]float64, 10)}); !errors.Is(err, ErrCircuitMismatch) {
		t.Fatalf("width mismatch: %v", err)
	}
	if _, err := sim.Gradient(context.Background(), circuit.GHZ(4), nil,
		MaxCutObservable(nil)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("gradient of parameterless circuit: %v", err)
	}

	// Engine-level batch mismatches — which RunBatch's own cloning can
	// never produce — surface as configuration errors too.
	bound, err := ansatz.Bind(make([]float64, ansatz.NumParams()))
	if err != nil {
		t.Fatal(err)
	}
	engine := func(cfg core.Config) *core.Simulator {
		cfg.Qubits, cfg.Seed = 4, 1
		eng, err := core.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng
	}
	base := engine(core.Config{})
	for name, other := range map[string]*core.Simulator{
		"lossy codec mismatch": engine(core.Config{Lossy: szlike.NewA()}),
		"noise mismatch":       engine(core.Config{Noise: 0.1}),
		"same engine twice":    base,
	} {
		_, err := runVariants(context.Background(), []*core.Simulator{base, other},
			[]*circuit.Circuit{bound, bound}, 0, 0)
		if !errors.Is(err, ErrBadConfig) {
			t.Fatalf("%s: got %v, want ErrBadConfig", name, err)
		}
	}
}

// TestWithVariantsEstimate: the variant knob scales the worst-case
// footprint and pins the job to the compressed backend.
func TestWithVariantsEstimate(t *testing.T) {
	ansatz := circuit.VQEAnsatz(6, 1)
	bound, err := ansatz.Bind(make([]float64, ansatz.NumParams()))
	if err != nil {
		t.Fatal(err)
	}
	solo, err := EstimateCircuit(6, bound)
	if err != nil {
		t.Fatal(err)
	}
	if solo.Variants != 1 {
		t.Fatalf("default Variants = %d", solo.Variants)
	}
	batch, err := EstimateCircuit(6, bound, WithVariants(9))
	if err != nil {
		t.Fatal(err)
	}
	if batch.Variants != 9 {
		t.Fatalf("Variants = %d, want 9", batch.Variants)
	}
	if batch.UncompressedBytes != 9*solo.UncompressedBytes {
		t.Fatalf("UncompressedBytes %v, want 9x %v", batch.UncompressedBytes, solo.UncompressedBytes)
	}
	if batch.MPSRunnable || batch.Backend != BackendCompressed {
		t.Fatalf("batch estimate not pinned to compressed: %+v", batch)
	}
	if _, err := EstimateCircuit(6, bound, WithVariants(-1)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative variants: %v", err)
	}
	if _, err := New(6, WithVariants(0)); err != nil {
		t.Fatalf("WithVariants(0) as default rejected by New: %v", err)
	}
}

// TestMaxCutEnergyIsGradientEnergy: MaxCutEnergy is the diagonal read
// Gradient's readout makes, and Run(c.Bind(values)) leaves the state of
// the gradient batch's unshifted variant, so the two energies agree to
// the last bit.
func TestMaxCutEnergyIsGradientEnergy(t *testing.T) {
	const n, rounds = 8, 1
	ctx := context.Background()
	for seed := int64(3); seed <= 6; seed++ {
		ansatz := circuit.QAOAAnsatz(n, rounds, seed)
		edges := circuit.RandomRegularGraph(n, 4, seed)
		values := circuit.QAOAAngles(rounds, seed)
		mk := func() *Simulator {
			s, err := New(n, WithSeed(seed), WithBlockAmps(16))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}
		res, err := mk().Gradient(ctx, ansatz, values, MaxCutObservable(edges))
		if err != nil {
			t.Fatal(err)
		}
		bound, err := ansatz.Bind(values)
		if err != nil {
			t.Fatal(err)
		}
		s := mk()
		if _, err := s.Run(ctx, bound); err != nil {
			t.Fatal(err)
		}
		e, err := s.MaxCutEnergy(edges)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(e) != math.Float64bits(res.Energy) {
			t.Errorf("seed %d: MaxCutEnergy %v, Gradient's Energy %v", seed, e, res.Energy)
		}
	}
}

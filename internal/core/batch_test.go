package core

import (
	"strings"
	"testing"
	"testing/quick"

	"qcsim/internal/quantum"
)

// batchSims builds K variant simulators by cloning a fresh base with
// VariantSeed-derived seeds — the exact construction the facade's
// RunBatch performs.
func batchSims(t *testing.T, qubits, ranks, blockAmps, k int, extra func(*Config)) []*Simulator {
	t.Helper()
	base := newSim(t, qubits, ranks, blockAmps, extra)
	sims := make([]*Simulator, k)
	sims[0] = base
	for v := 1; v < k; v++ {
		clone, err := base.Clone(VariantSeed(base.Config().Seed, v))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { clone.Close() })
		sims[v] = clone
	}
	return sims
}

func TestVariantSeed(t *testing.T) {
	if VariantSeed(42, 0) != 42 {
		t.Fatal("variant 0 must keep the base seed")
	}
	seen := map[int64]bool{}
	for v := 0; v < 16; v++ {
		s := VariantSeed(42, v)
		if seen[s] {
			t.Fatalf("variant seed collision at v=%d", v)
		}
		seen[s] = true
	}
}

func TestCloneCopiesStateAndLedger(t *testing.T) {
	s := newSim(t, 6, 2, 8, func(c *Config) { c.MemoryBudget = 1024 })
	if err := s.Run(quantum.QAOA(6, 1, 3)); err != nil {
		t.Fatal(err)
	}
	clone, err := s.Clone(VariantSeed(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Close()
	assertBitIdentical(t, s, clone, "clone")
	if clone.FidelityLowerBound() != s.FidelityLowerBound() {
		t.Fatalf("ledger not carried: %v vs %v", clone.FidelityLowerBound(), s.FidelityLowerBound())
	}
	if clone.GatesRun() != s.GatesRun() {
		t.Fatalf("gate count not carried: %d vs %d", clone.GatesRun(), s.GatesRun())
	}
	// Mutating the clone must not disturb the parent.
	before, err := s.FullState()
	if err != nil {
		t.Fatal(err)
	}
	if err := clone.Run(quantum.NewCircuit(6).H(0).CNOT(0, 5)); err != nil {
		t.Fatal(err)
	}
	after, err := s.FullState()
	if err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("running the clone mutated the parent at amplitude %d", i)
		}
	}
}

// TestQuickRunBatchBitIdentical is the batch executor's master
// property: a K-variant RunBatch leaves every variant in exactly the
// state K solo RunControlled calls with the same per-variant seeds
// would, for ANY geometry, worker count, and sweep setting. Run under
// -race in CI, it doubles as the data-race check on the
// block-index-first fan-out.
func TestQuickRunBatchBitIdentical(t *testing.T) {
	f := func(seed int64, geomSel, workerSel, sweepSel uint8) bool {
		const qubits, p, k = 6, 1, 3
		geoms := []struct{ ranks, block int }{
			{1, 64}, {1, 8}, {2, 8}, {4, 4}, {2, 32},
		}
		g := geoms[int(geomSel)%len(geoms)]
		workers := 1 + int(workerSel)%4
		disable := sweepSel%2 == 1
		extra := func(c *Config) {
			c.Workers = workers
			c.DisableSweeps = disable
		}
		ansatz := quantum.QAOAAnsatz(qubits, p, seed)
		circuits := make([]*quantum.Circuit, k)
		for v := range circuits {
			vals := quantum.QAOAAngles(p, seed+int64(v))
			c, err := ansatz.Bind(vals)
			if err != nil {
				t.Fatal(err)
			}
			circuits[v] = c
		}
		sims := batchSims(t, qubits, g.ranks, g.block, k, extra)
		if err := RunBatch(sims, circuits, RunControl{}); err != nil {
			t.Fatalf("RunBatch: %v", err)
		}
		for v := 0; v < k; v++ {
			solo := newSim(t, qubits, g.ranks, g.block, func(c *Config) {
				extra(c)
				c.Seed = VariantSeed(1, v)
			})
			if err := solo.Run(circuits[v]); err != nil {
				t.Fatalf("solo run %d: %v", v, err)
			}
			assertBitIdentical(t, sims[v], solo, "batch vs solo")
			if sims[v].FidelityLowerBound() != solo.FidelityLowerBound() {
				t.Fatalf("variant %d ledger differs: %v vs %v", v, sims[v].FidelityLowerBound(), solo.FidelityLowerBound())
			}
			if st := sims[v].Stats(); st.VariantCount != k {
				t.Fatalf("variant %d VariantCount = %d, want %d", v, st.VariantCount, k)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestRunBatchSharesCodecWork is the batch executor's reason to exist:
// a parameter-shift-style batch — variants identical except one gate —
// must resolve its shared work through the batch memo. Both executors
// iterate one plan, so the ideal is derived from it rather than from a
// fixed ratio: a variant pays the codec only from the sweep that holds
// its shifted gate onwards, everything before is the base's work.
func TestRunBatchSharesCodecWork(t *testing.T) {
	const qubits, p, k = 8, 1, 5
	ansatz := quantum.QAOAAnsatz(qubits, p, 11)
	base := quantum.QAOAAngles(p, 11)
	occs := ansatz.ParamOccurrences()
	circuits := make([]*quantum.Circuit, k)
	shifted := make([]int, k) // gate index where variant v leaves the base
	bound, err := ansatz.Bind(base)
	if err != nil {
		t.Fatal(err)
	}
	circuits[0] = bound
	// Shift occurrences from the END of the circuit (the mixer layer):
	// each variant then shares its long prefix with the base, the shape
	// the memo is built to exploit. (Early-gate shifts legitimately
	// share little — divergence is real state divergence.)
	for v := 1; v < k; v++ {
		occ := occs[len(occs)-1-(v-1)%len(occs)]
		if circuits[v], err = ansatz.BindShift(base, occ.Gate, 0.5); err != nil {
			t.Fatal(err)
		}
		shifted[v] = occ.Gate
	}
	// Workers: 1 keeps the memo counters deterministic (racing workers
	// may benignly double-compute an identical key).
	oneWorker := func(c *Config) { c.Workers = 1 }
	sims := batchSims(t, qubits, 1, 32, k, oneWorker)
	baseStats := sims[0].Stats()
	if err := RunBatch(sims, circuits, RunControl{}); err != nil {
		t.Fatal(err)
	}
	var batchCalls, shared int64
	for _, s := range sims {
		st := s.Stats()
		batchCalls += st.CompressCalls + st.DecompressCalls
		shared += st.CodecPassesShared
	}
	batchCalls -= k * (baseStats.CompressCalls + baseStats.DecompressCalls)
	if shared == 0 {
		t.Fatal("no codec passes shared across variants")
	}

	// soloFrom runs cir alone and returns the codec calls it issues from
	// the sweep holding gate `from` onwards.
	soloFrom := func(cir *quantum.Circuit, from int) int64 {
		solo := newSim(t, qubits, 1, 32, oneWorker)
		calls := func() int64 { st := solo.ranks[0].stats; return st.CompressCalls + st.DecompressCalls }
		var atSweep []int64 // calls issued before each sweep of the plan
		if err := solo.RunControlled(cir, RunControl{PollAbort: func() error {
			atSweep = append(atSweep, calls())
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
		for i, sw := range solo.planSweeps(cir.Gates) {
			if from < sw.End {
				return calls() - atSweep[i]
			}
		}
		t.Fatalf("gate %d beyond the plan", from)
		return 0
	}
	soloCalls := soloFrom(circuits[0], 0)
	ideal := soloCalls
	for v := 1; v < k; v++ {
		ideal += soloFrom(circuits[v], shifted[v])
	}
	if batchCalls > ideal {
		t.Fatalf("batch issued %d codec calls, the plan's shared-prefix ideal is %d", batchCalls, ideal)
	}
	if ratio := float64(k*soloCalls) / float64(batchCalls); ratio < 2 {
		t.Fatalf("batch codec reduction only %.2fx (%d solo x%d vs %d batched), want >= 2x",
			ratio, soloCalls, k, batchCalls)
	}
	t.Logf("codec calls: %d solo x %d variants = %d sequential vs %d batched (plan ideal %d), %d passes shared",
		soloCalls, k, k*soloCalls, batchCalls, ideal, shared)
}

// TestRunBatchMeasurementFallback: measurement gates break lockstep, so
// the batch runs variant-at-a-time — still producing exactly the solo
// outcomes per variant seed.
func TestRunBatchMeasurementFallback(t *testing.T) {
	const qubits, k = 5, 3
	cir := quantum.NewCircuit(qubits)
	for q := 0; q < qubits; q++ {
		cir.H(q)
	}
	cir.Measure(0).Measure(2)
	circuits := make([]*quantum.Circuit, k)
	for v := range circuits {
		circuits[v] = cir
	}
	sims := batchSims(t, qubits, 1, 8, k, nil)
	if err := RunBatch(sims, circuits, RunControl{}); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < k; v++ {
		solo := newSim(t, qubits, 1, 8, func(c *Config) { c.Seed = VariantSeed(1, v) })
		if err := solo.Run(cir); err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, sims[v], solo, "measured batch vs solo")
		if st := sims[v].Stats(); st.VariantCount != k {
			t.Fatalf("fallback variant %d VariantCount = %d, want %d", v, st.VariantCount, k)
		}
	}
}

func TestRunBatchValidation(t *testing.T) {
	sims := batchSims(t, 4, 1, 8, 2, nil)
	ansatz := quantum.VQEAnsatz(4, 1)
	bound, err := ansatz.Bind(make([]float64, ansatz.NumParams()))
	if err != nil {
		t.Fatal(err)
	}
	if err := RunBatch(nil, nil, RunControl{}); err == nil {
		t.Fatal("empty batch accepted")
	}
	if err := RunBatch(sims, []*quantum.Circuit{bound}, RunControl{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := RunBatch(sims, []*quantum.Circuit{ansatz, ansatz}, RunControl{}); err == nil ||
		!strings.Contains(err.Error(), "unbound") {
		t.Fatalf("unbound circuit accepted: %v", err)
	}
	other := quantum.NewCircuit(4).H(0)
	if err := RunBatch(sims, []*quantum.Circuit{bound, other}, RunControl{}); err == nil ||
		!strings.Contains(err.Error(), "shape") {
		t.Fatalf("shape mismatch accepted: %v", err)
	}
	mismatched := newSim(t, 4, 2, 8, nil)
	if err := RunBatch([]*Simulator{sims[0], mismatched}, []*quantum.Circuit{bound, bound}, RunControl{}); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

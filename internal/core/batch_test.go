package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"qcsim/internal/compress/szlike"
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

// repeatCircuit is the batch of k variants that all run cir.
func repeatCircuit(cir *quantum.Circuit, k int) []*quantum.Circuit {
	circuits := make([]*quantum.Circuit, k)
	for v := range circuits {
		circuits[v] = cir
	}
	return circuits
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
// (block, variant) fan-out.
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
		assertVariantsMatchSolo(t, sims, circuits, func(v int) *Simulator {
			return newSim(t, qubits, g.ranks, g.block, func(c *Config) {
				extra(c)
				c.Seed = VariantSeed(1, v)
			})
		})
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
// its shifted gate onwards, everything before is the base's work. The
// blocks hold 8 amplitudes, leaving five block qubits: at 32 the three
// left would fit one 8-block sweep, a plan of one sweep with no prefix
// to share.
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
	sims := batchSims(t, qubits, 1, 8, k, nil)
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
		solo := newSim(t, qubits, 1, 8, nil)
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

// shiftBatch is a parameter-shift-style batch of k variants of a QAOA
// ansatz: variant 0 the base binding, each later one shifted in a single
// gate of the closing mixer layer — so all k share the H layer (which
// from |0…0⟩ also leaves byte-identical blocks WITHIN a variant) and the
// cost layer, and diverge only at the end.
func shiftBatch(t *testing.T, qubits, k int) []*quantum.Circuit {
	t.Helper()
	ansatz := quantum.QAOAAnsatzGraph(qubits, 1, quantum.RandomRegularGraph(qubits, 2, 11))
	base := quantum.QAOAAngles(1, 11)
	occs := ansatz.ParamOccurrences()
	circuits := make([]*quantum.Circuit, k)
	var err error
	if circuits[0], err = ansatz.Bind(base); err != nil {
		t.Fatal(err)
	}
	for v := 1; v < k; v++ {
		occ := occs[len(occs)-1-(v-1)%qubits]
		if circuits[v], err = ansatz.BindShift(base, occ.Gate, 0.25*float64(v)); err != nil {
			t.Fatal(err)
		}
	}
	return circuits
}

// TestBatchCountersIndependentOfWorkers: a pass's (block, variant) units
// run on different workers, so two of them can reach one memo key at the
// same moment — and exactly one may pay for it. The codec-call and
// shared-pass totals of a batch are functions of its keys: equal for
// every worker count, and together they account for every block the
// passes fired, no more (a double compute) and no less.
//
// And when the worker that claimed a key fails, the workers parked on it
// must come back with its error: forEach joins every worker before the
// run returns, so a parked one would hang it (runWithFault's timeout).
func TestBatchCountersIndependentOfWorkers(t *testing.T) {
	t.Run("failed leader releases its waiters", func(t *testing.T) {
		// Two H layers on the 2-rank geometry: a group sweep on qubits
		// 0..4 (block targets 3 and 4, so each rank's four blocks are
		// one group), a measurement of the rank-segment qubit 5 — still
		// |0⟩, so every variant draws 0 — and the group sweep again.
		// Before each group sweep every variant holds the same bytes, so
		// a rank's pass has one key per group base, and the other
		// variants' units wait on its leader. The faults are armed at the
		// two group sweeps, on all variants — whichever leads.
		cir := quantum.NewCircuit(6)
		for q := 0; q < 5; q++ {
			cir.H(q)
		}
		cir.Measure(5)
		for q := 0; q < 5; q++ {
			cir.H(q)
		}
		for _, f := range []codecFault{
			{all: true, dec: true, at: 0},
			{all: true, enc: true, at: 2},
		} {
			runWithFault(t, 8, func(c *Config) { c.Workers = 4 }, cir, f)
		}
	})

	const qubits = 6
	for _, tc := range []struct {
		k, ranks, block int
		noSweeps, raw   bool // raw: the memo keys on uncompressed blobs all the same
	}{
		{k: 3, ranks: 1, block: 4},                            // 16 blocks
		{k: 8, ranks: 2, block: 4, raw: true},                 // 8 blocks a rank, a rank-segment qubit
		{k: 3, ranks: 1, block: 8, raw: true, noSweeps: true}, // a pass per gate
	} {
		circuits := shiftBatch(t, qubits, tc.k)
		// What the passes fire: a solo run without a block cache pays one
		// compression per fired block, and a batch fires its variants' sum.
		solos := make([]*Simulator, tc.k)
		var fired int64
		for v := range solos {
			solos[v] = newSim(t, qubits, tc.ranks, tc.block, func(c *Config) {
				c.DisableSweeps, c.Uncompressed = tc.noSweeps, tc.raw
				c.Seed = VariantSeed(1, v)
			})
			before := solos[v].Stats().CompressCalls
			if err := solos[v].Run(circuits[v]); err != nil {
				t.Fatal(err)
			}
			fired += solos[v].Stats().CompressCalls - before
		}
		type totals struct{ enc, dec, shared int64 }
		var want totals
		for _, workers := range []int{1, 2, 4} {
			sims := batchSims(t, qubits, tc.ranks, tc.block, tc.k, func(c *Config) {
				c.DisableSweeps, c.Uncompressed = tc.noSweeps, tc.raw
				c.Workers = workers
			})
			var got totals
			for _, s := range sims {
				got.enc -= s.Stats().CompressCalls // Reset's
			}
			if err := RunBatch(sims, circuits, RunControl{}); err != nil {
				t.Fatal(err)
			}
			for v, s := range sims {
				st := s.Stats()
				got.enc += st.CompressCalls
				got.dec += st.DecompressCalls
				got.shared += st.CodecPassesShared
				assertBitIdentical(t, s, solos[v], fmt.Sprintf("%+v workers=%d variant %d vs solo", tc, workers, v))
			}
			if got.enc+got.shared != fired {
				t.Fatalf("%+v workers=%d: %d blocks computed + %d shared, the passes fired %d", tc, workers, got.enc, got.shared, fired)
			}
			if got.shared == 0 {
				t.Fatalf("%+v workers=%d: nothing shared; the test is vacuous", tc, workers)
			}
			if workers == 1 {
				want = got
			} else if got != want {
				t.Fatalf("%+v: counters depend on the schedule: workers=%d %+v, workers=1 %+v", tc, workers, got, want)
			}
		}
	}
}

// assertVariantsMatchSolo checks every variant of a finished batch
// against a solo run of its circuit on the fresh simulator solo(v)
// builds (seeded VariantSeed(1, v)): amplitudes, measurement log and
// ledger bit for bit. It returns the codec passes the batch shared
// across variants, and the block decodes it saved against the solo runs
// (a memo hit decodes nothing, a fork decodes variant 0's group once per
// chunk).
func assertVariantsMatchSolo(t *testing.T, sims []*Simulator, circuits []*quantum.Circuit, solo func(v int) *Simulator) (shared, decodesSaved int64) {
	t.Helper()
	for v, s := range sims {
		ref := solo(v)
		if err := ref.Run(circuits[v]); err != nil {
			t.Fatal(err)
		}
		assertBitIdentical(t, s, ref, fmt.Sprintf("variant %d vs solo", v))
		if s.FidelityLowerBound() != ref.FidelityLowerBound() {
			t.Fatalf("variant %d ledger differs: %v vs %v", v, s.FidelityLowerBound(), ref.FidelityLowerBound())
		}
		st := s.Stats()
		if st.VariantCount != len(sims) {
			t.Fatalf("variant %d VariantCount = %d, want %d", v, st.VariantCount, len(sims))
		}
		shared += st.CodecPassesShared
		decodesSaved += ref.Stats().DecompressCalls - st.DecompressCalls
	}
	return shared, decodesSaved
}

// TestRunBatchMeasurementLockstep: measurement gates run inside the
// lockstep loop — each variant draws from its own stream and ends
// exactly where its solo run does (different seeds really do collapse
// differently), while the pre-measurement prefix, identical across
// variants, is still shared through the memo.
func TestRunBatchMeasurementLockstep(t *testing.T) {
	const qubits, k = 5, 3
	for _, tc := range []struct{ ranks, measured int }{
		{1, 0},
		{2, 4}, // qubit 4 is the rank-segment qubit
	} {
		for _, workers := range []int{1, 4} {
			// The H layer skips qubit 4 until after the first measurement:
			// on 2 ranks a sweep with the rank target consults no memo, so
			// the prefix must stay below the rank segment to share.
			cir := quantum.NewCircuit(qubits)
			for q := 0; q < qubits-1; q++ {
				cir.H(q)
			}
			cir.Measure(2).H(qubits-1).Measure(tc.measured).CNOT(0, 3).H(tc.measured)
			circuits := repeatCircuit(cir, k)
			cfg := func(c *Config) { c.Workers = workers }
			sims := batchSims(t, qubits, tc.ranks, 4, k, cfg)
			if err := RunBatch(sims, circuits, RunControl{}); err != nil {
				t.Fatal(err)
			}
			shared, _ := assertVariantsMatchSolo(t, sims, circuits, func(v int) *Simulator {
				return newSim(t, qubits, tc.ranks, 4, func(c *Config) {
					cfg(c)
					c.Seed = VariantSeed(1, v)
				})
			})
			if shared == 0 {
				t.Fatalf("ranks=%d workers=%d: the pre-measurement prefix shared no codec passes", tc.ranks, workers)
			}
			logs := map[string]bool{}
			for _, s := range sims {
				logs[fmt.Sprint(s.Measurements())] = true
			}
			if len(logs) == 1 {
				t.Fatalf("ranks=%d: all %d variants drew the same outcomes; the per-variant streams are not in use", tc.ranks, k)
			}
		}
	}
}

// TestRunBatchNoiseLockstep is the noise twin: K trajectories of one
// circuit under a live depolarizing channel run in one batch, each
// bit-identical to its solo trajectory. Each variant runs its own plan,
// its Paulis riding their gates' sweeps, and variants whose sweeps end
// together share one pass: a variant equal to variant 0 there takes the
// memo's blobs, and one whose first own Pauli comes after the pass's
// first gate forks off variant 0's walk and shares its decode. The QAOA
// prefix stays below the rank segment, as a sweep with a rank target
// exchanges variant by variant and shares nothing. Run under -race it
// also covers the forks interleaved with the shared fan-out.
func TestRunBatchNoiseLockstep(t *testing.T) {
	const qubits, k = 6, 4
	cir := quantum.NewCircuit(qubits)
	cir.Gates = append(cir.Gates, quantum.QAOA(qubits-1, 1, 5).Gates...)
	cir.Measure(2).H(qubits-1).CNOT(qubits-1, 0)
	circuits := repeatCircuit(cir, k)
	for _, ranks := range []int{1, 2} {
		cfg := func(c *Config) { c.Workers, c.Noise = 3, 0.05 }
		sims := batchSims(t, qubits, ranks, 8, k, cfg)
		if err := RunBatch(sims, circuits, RunControl{}); err != nil {
			t.Fatal(err)
		}
		shared, saved := assertVariantsMatchSolo(t, sims, circuits, func(v int) *Simulator {
			return newSim(t, qubits, ranks, 8, func(c *Config) {
				cfg(c)
				c.Seed = VariantSeed(1, v)
			})
		})
		if shared == 0 && saved == 0 {
			t.Fatalf("ranks=%d: the noisy trajectories shared no codec pass and no decode", ranks)
		}
		states := map[string]bool{}
		for _, s := range sims {
			amps, err := s.FullState()
			if err != nil {
				t.Fatal(err)
			}
			states[fmt.Sprint(amps)] = true
		}
		if len(states) == 1 {
			t.Fatalf("ranks=%d: all %d trajectories are identical; no Pauli ever fired", ranks, k)
		}
	}
}

// TestRunBatchHooksFireOncePerBatch: a measured batch used to run
// variant-at-a-time, so OnGate fired K times per gate and a cancel left
// variant 0 at a prefix and the others at zero gates. In the one loop
// the hooks belong to the batch.
func TestRunBatchHooksFireOncePerBatch(t *testing.T) {
	const qubits, k = 5, 3
	cir := quantum.NewCircuit(qubits).H(0).H(4).Measure(0).CNOT(0, 1).H(4).Measure(4).H(2)
	circuits := repeatCircuit(cir, k)
	sims := batchSims(t, qubits, 2, 4, k, nil)
	var seen []int
	err := RunBatch(sims, circuits, RunControl{OnGate: func(gi, total int, g quantum.Gate) {
		if total != len(cir.Gates) {
			t.Errorf("OnGate total = %d, want %d", total, len(cir.Gates))
		}
		seen = append(seen, gi)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(cir.Gates) {
		t.Fatalf("OnGate fired %d times for %d gates: %v", len(seen), len(cir.Gates), seen)
	}
	for i, gi := range seen {
		if gi != i {
			t.Fatalf("OnGate order %v is not strictly increasing from 0", seen)
		}
	}

	sims = batchSims(t, qubits, 2, 4, k, nil)
	polls := 0
	err = RunBatch(sims, circuits, RunControl{PollAbort: func() error {
		if polls++; polls > 3 {
			return context.Canceled
		}
		return nil
	}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v, want a wrapped context.Canceled", err)
	}
	ran := sims[0].GatesRun()
	if ran == 0 || ran == len(cir.Gates) {
		t.Fatalf("cancel after 3 sweeps left %d of %d gates run; test is vacuous", ran, len(cir.Gates))
	}
	for v, s := range sims {
		if s.GatesRun() != ran {
			t.Fatalf("variant %d stopped after %d gates, variant 0 after %d", v, s.GatesRun(), ran)
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
	pair := []*quantum.Circuit{bound, bound}
	for name, other := range map[string]*Simulator{
		"geometry mismatch": newSim(t, 4, 2, 8, nil),
		// The memo keys on compressed bytes, not on who produced them.
		"lossy codec mismatch": newSim(t, 4, 1, 8, func(c *Config) { c.Lossy = szlike.NewA() }),
		// The noise probability decides the sweep plan.
		"noise mismatch": newSim(t, 4, 1, 8, func(c *Config) { c.Noise = 0.1 }),
		// Aliased slots would race on one block.
		"same simulator twice": sims[0],
	} {
		if err := RunBatch([]*Simulator{sims[0], other}, pair, RunControl{}); !errors.Is(err, ErrBatchMismatch) {
			t.Fatalf("%s: got %v, want ErrBatchMismatch", name, err)
		}
	}
}

// TestCloneIssuesNoCodecCall: a clone installs the parent's blobs as
// they are, so it encodes nothing — not even a |0…0⟩ state to throw
// away — and starts with no codec calls on its books.
func TestCloneIssuesNoCodecCall(t *testing.T) {
	s := newSim(t, 8, 2, 16, nil)
	if err := s.Run(quantum.RandomCircuit(8, 20, 4)); err != nil {
		t.Fatal(err)
	}
	var enc atomic.Int64
	s.cfg.Lossless = countingCodec{Codec: s.cfg.Lossless, enc: &enc}
	clone, err := s.Clone(VariantSeed(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Close()
	if n := enc.Load(); n != 0 {
		t.Fatalf("Clone issued %d encode calls, want 0", n)
	}
	if st := clone.Stats(); st.CompressCalls != 0 || st.DecompressCalls != 0 {
		t.Fatalf("clone starts with %d compress and %d decompress calls, want none", st.CompressCalls, st.DecompressCalls)
	}
	assertBitIdentical(t, s, clone, "clone")
}

// TestCloneHoldsNoScratch: a batch variant's passes run on variant 0's
// worker pool, so a clone allocates no scratch of its own — not even the
// Eq. 8 pair — until something runs on its own pool. Inspecting it
// (DiagonalExpectation, blockMasses and a Sampler's draws fan out on
// the clone's own pool) decodes into buffers of the call's own, so a
// clone that has only been read holds none either.
func TestCloneHoldsNoScratch(t *testing.T) {
	s := newSim(t, 8, 2, 16, func(c *Config) { c.Workers = 2 })
	if err := s.Run(quantum.RandomCircuit(8, 20, 4)); err != nil {
		t.Fatal(err)
	}
	clone, err := s.Clone(VariantSeed(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Close()
	noScratch := func(when string) {
		t.Helper()
		for _, rs := range clone.ranks {
			for _, w := range rs.workers {
				if w.x != nil || w.y != nil {
					t.Fatalf("rank %d worker %d of a clone holds a scratch pair %s", rs.id, w.id, when)
				}
			}
		}
	}
	noScratch("when fresh")
	assertBitIdentical(t, s, clone, "clone")
	if _, err := clone.DiagonalExpectation([]quantum.ZTerm{{Q: 2, W: 1}}, []quantum.ZZTerm{{A: 0, B: 7, W: -0.5}, {A: 3, B: 5, W: -0.5}}); err != nil {
		t.Fatal(err)
	}
	if _, err := clone.jointDistribution(1, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := clone.Norm(); err != nil {
		t.Fatal(err)
	}
	for _, q := range []int{0, 5, 7} { // an offset, a block and a rank qubit
		if _, err := clone.ProbabilityOne(q); err != nil {
			t.Fatal(err)
		}
	}
	sp, err := clone.NewSampler(DefaultSampleCache)
	if err != nil {
		t.Fatal(err)
	}
	// A few shots go through the LRU; a thousand touch all 16 blocks,
	// more than it has lines, and bypass it.
	for _, shots := range []int{3, 1000} {
		if _, err := sp.Sample(nil, shots); err != nil {
			t.Fatal(err)
		}
	}
	noScratch("after DiagonalExpectation, jointDistribution, Norm, ProbabilityOne, NewSampler and Sample")
}

// forkBody is one sweep on 7 qubits at 16-amplitude blocks: qubits 0..3
// index offsets and 4..6 the eight blocks of one group. Its first two
// gates and its last are rotations, so a variant that differs in one
// gate can part from variant 0 anywhere, on an offset or a block target.
func forkBody() *quantum.Circuit {
	c := quantum.NewCircuit(7).RY(0, 0.3).RX(4, 0.4)
	for _, q := range []int{1, 2, 3, 5, 6} {
		c.H(q)
	}
	for _, e := range [][2]int{{0, 4}, {4, 5}, {1, 6}, {5, 6}, {2, 3}} {
		c.CNOT(e[0], e[1]).RZ(e[1], 0.2+float64(0.1*float64(e[1]))).CNOT(e[0], e[1])
	}
	for q := range 7 {
		c.RX(q, 0.1*float64(q+1))
	}
	return c
}

// partAt is c with gate gi's matrix replaced by a rotation of variant v's
// own: the same shape, parting from c at gate gi.
func partAt(c *quantum.Circuit, gi, v int) *quantum.Circuit {
	out := *c
	out.Gates = slices.Clone(c.Gates)
	out.Gates[gi].U = quantum.RY(1 + float64(0.01*float64(v)))
	return &out
}

// applied is the gates the kernels of s's workers have run, one per gate
// per group.
func applied(s *Simulator) (n int64) {
	for _, rs := range s.ranks {
		for _, w := range rs.workers {
			n += w.applied
		}
	}
	return n
}

// TestRunBatchForkReadsWhatItsPassReads: a variant may fork off variant
// 0's walk only where it reads the members variant 0 reads. Variant 0
// runs a block-controlled CNOT alone, variant 1 that CNOT and a noise
// Pauli on its target: the Pauli reads the blocks the control leaves
// alone, which variant 0's walk never decodes, so variant 1 runs its own
// units and ends where its solo run does.
func TestRunBatchForkReadsWhatItsPassReads(t *testing.T) {
	const qubits = 7              // on 8-amplitude blocks, qubits 3..6 index the blocks
	const basis = 1<<6 | 1<<3 | 1 // control qubit 4 clear
	cir := quantum.NewCircuit(qubits).CNOT(4, 6)
	circuits := repeatCircuit(cir, 2)
	seed := noiseSeed(t, qubits, circuits, 0.5, func(traj trajectory) bool {
		return len(traj.gates[0]) == 1 && len(traj.gates[1]) == 2
	})
	for _, workers := range []int{1, 2} {
		cfg := func(c *Config) { c.Seed, c.Noise, c.Workers = seed, 0.5, workers }
		sims := batchSims(t, qubits, 1, 8, 2, cfg)
		for _, s := range sims {
			if err := s.SetBasisState(basis); err != nil {
				t.Fatal(err)
			}
		}
		if err := RunBatch(sims, circuits, RunControl{}); err != nil {
			t.Fatal(err)
		}
		assertVariantsMatchSolo(t, sims, circuits, func(v int) *Simulator {
			s := newSim(t, qubits, 1, 8, func(c *Config) {
				cfg(c)
				c.Seed = VariantSeed(seed, v)
			})
			if err := s.SetBasisState(basis); err != nil {
				t.Fatal(err)
			}
			return s
		})
	}
}

// noiseSeed is the first seed in 1..100 at which the Paulis a batch of
// circuits on 8-amplitude blocks of one rank would draw at noise p,
// drawn on twins, satisfy want.
func noiseSeed(t *testing.T, qubits int, circuits []*quantum.Circuit, p float64, want func(trajectory) bool) int64 {
	t.Helper()
	for seed := int64(1); seed <= 100; seed++ {
		sims := batchSims(t, qubits, 1, 8, len(circuits), func(c *Config) { c.Seed, c.Noise = seed, p })
		if want(splice(sims, circuits)) {
			return seed
		}
	}
	t.Fatal("no seed in 1..100 draws the Paulis the test needs")
	return 0
}

// TestRunBatchForkCountsItsOwnGates: a variant that forks off variant
// 0's walk with a noise Pauli variant 0 lacks charges the round trips
// its own gates saved (CodecPassesSaved), as its solo run does — not
// variant 0's count.
func TestRunBatchForkCountsItsOwnGates(t *testing.T) {
	const qubits = 6
	cir := quantum.NewCircuit(qubits).H(0).H(3)
	circuits := repeatCircuit(cir, 2)
	seed := noiseSeed(t, qubits, circuits, 0.5, func(traj trajectory) bool {
		return len(traj.gates[0]) == 2 && slices.Equal(traj.at[1], []int{0, 1, 1, 2})
	})
	cfg := func(c *Config) { c.Seed, c.Noise = seed, 0.5 }
	sims := batchSims(t, qubits, 1, 8, 2, cfg)
	if err := RunBatch(sims, circuits, RunControl{}); err != nil {
		t.Fatal(err)
	}
	_, saved := assertVariantsMatchSolo(t, sims, circuits, func(v int) *Simulator {
		return newSim(t, qubits, 1, 8, func(c *Config) {
			cfg(c)
			c.Seed = VariantSeed(seed, v)
		})
	})
	if saved == 0 {
		t.Fatal("variant 1 did not fork off variant 0's walk; test is vacuous")
	}
	solo := newSim(t, qubits, 1, 8, func(c *Config) { cfg(c); c.Seed = VariantSeed(seed, 1) })
	if err := solo.Run(cir); err != nil {
		t.Fatal(err)
	}
	if got, want := sims[1].Stats().CodecPassesSaved, solo.Stats().CodecPassesSaved; got != want {
		t.Fatalf("the fork saved %d round trips, its solo run %d", got, want)
	}
}

// TestRunBatchForksAtDivergence: a variant whose gates part from variant
// 0's inside a pass runs as a fork of variant 0's walk — its shared
// prefix decoded and applied once per chunk of forks — and must still
// end bit for bit where its solo run does, with codec totals that do not
// depend on the worker count. The parameter-shift batches must run fewer
// gate applications than their solo runs (a count, not a clock); a fork
// copied from the lead one gate late would carry variant 0's gate at its
// divergence point and fail the bits.
func TestRunBatchForksAtDivergence(t *testing.T) {
	const qubits, block = 7, 16
	body := forkBody()
	last, mid := len(body.Gates)-1, len(body.Gates)/2
	shift := func(k int) []*quantum.Circuit {
		cs := make([]*quantum.Circuit, k)
		cs[0] = body
		for v := 1; v < k; v++ {
			switch v {
			case 1:
				cs[v] = partAt(body, 1, v)
			case 2:
				cs[v] = partAt(body, last, v)
			case 3:
				cs[v] = body // equal to variant 0: the memo's
			case 4:
				cs[v] = partAt(body, 0, v) // parts at gate 0: its own units
			default:
				cs[v] = partAt(body, 1+v%last, v)
			}
		}
		return cs
	}
	// prefixed runs a sweep and a measurement of the still-|0⟩ qubit 6
	// before body: a variant whose prefix angle differs reaches the body
	// pass with inputs of its own, and the measurement re-encodes every
	// block, so the others' inputs are variant 0's bytes in fresh blobs.
	prefixed := func(angle float64, body *quantum.Circuit) *quantum.Circuit {
		c := quantum.NewCircuit(qubits).RY(0, angle).H(5).CNOT(0, 4).Measure(6)
		c.Gates = append(c.Gates, body.Gates...)
		return c
	}
	lossy := func(c *Config) { c.ErrorLevels = []float64{1e-3} }
	for _, tc := range []struct {
		name     string
		circuits []*quantum.Circuit
		extra    func(*Config)
		level    int  // the level every variant starts at
		fewer    bool // a parameter-shift batch: fewer gate applications than solo
	}{
		{name: "K=3", circuits: shift(3), fewer: true},
		{name: "K=79", circuits: shift(79), fewer: true},
		{name: "earlier divergence", circuits: []*quantum.Circuit{
			prefixed(0.3, body),
			prefixed(0.9, partAt(body, mid, 1)), // a fork candidate with inputs of its own
			prefixed(0.3, partAt(body, mid, 2)),
			prefixed(0.3, partAt(body, mid+1, 3)),
			prefixed(0.9, body),
		}},
		{name: "lossy", circuits: shift(11), extra: lossy, level: 1, fewer: true},
		{name: "spill", circuits: shift(11), extra: spillCfg(t, 1024), fewer: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := len(tc.circuits)
			cfg := func(workers, v int) func(*Config) {
				return func(c *Config) {
					if tc.extra != nil {
						tc.extra(c)
					}
					c.Workers, c.Seed = workers, VariantSeed(1, v)
				}
			}
			atLevel := func(s *Simulator) *Simulator {
				for _, rs := range s.ranks {
					rs.level = tc.level
				}
				return s
			}
			solos := make([]*Simulator, k)
			var soloApplied int64
			for v := range solos {
				solos[v] = atLevel(newSim(t, qubits, 1, block, cfg(1, v)))
				if err := solos[v].Run(tc.circuits[v]); err != nil {
					t.Fatal(err)
				}
				soloApplied += applied(solos[v])
			}
			if tc.level > 0 && solos[0].FidelityLowerBound() == 1 {
				t.Fatal("the lossy runs charged no ledger factor; the case is vacuous")
			}
			if tc.extra != nil && sumSpillWrites(solos[0]) == 0 && tc.level == 0 {
				t.Fatal("the spill runs never spilled; the case is vacuous")
			}
			type totals struct{ enc, dec, shared, applied int64 }
			var want totals
			for _, workers := range []int{1, 2, 4} {
				base := atLevel(newSim(t, qubits, 1, block, cfg(workers, 0)))
				sims := []*Simulator{base}
				for v := 1; v < k; v++ {
					clone, err := base.Clone(VariantSeed(1, v))
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { clone.Close() })
					sims = append(sims, clone)
				}
				got := totals{enc: -base.Stats().CompressCalls} // Reset's
				if err := RunBatch(sims, tc.circuits, RunControl{}); err != nil {
					t.Fatal(err)
				}
				for v, s := range sims {
					assertBitIdentical(t, s, solos[v], fmt.Sprintf("workers=%d variant %d vs solo", workers, v))
					if s.FidelityLowerBound() != solos[v].FidelityLowerBound() {
						t.Fatalf("workers=%d variant %d ledger %v, solo %v", workers, v, s.FidelityLowerBound(), solos[v].FidelityLowerBound())
					}
					st := s.Stats()
					got.enc += st.CompressCalls
					got.dec += st.DecompressCalls
					got.shared += st.CodecPassesShared
					got.applied += applied(s)
				}
				if tc.fewer && got.applied >= soloApplied {
					t.Fatalf("workers=%d: the batch ran %d gate applications, its solo runs %d; nothing forked", workers, got.applied, soloApplied)
				}
				if workers == 1 {
					want = got
				} else if got != want {
					t.Fatalf("counters depend on the schedule: workers=%d %+v, workers=1 %+v", workers, got, want)
				}
			}
			t.Logf("gate applications: %d batched, %d solo; codec %+v", want.applied, soloApplied, want)
		})
	}
}

// TestRunBatchPlanReadsEveryVariant: a batch plans each variant on its
// own, so a triple is a ZZ unit in the variants whose middle gate is
// diagonal and three gates in the others. Variant 0's RY(0) is diagonal,
// variant 1's RY(0.3) is not; variant 1 multiplied by RY(0.3)'s diagonal
// would be wrong. Each variant must end where its solo run does, bit for
// bit — variant 0's with the unit, variant 1's without it.
func TestRunBatchPlanReadsEveryVariant(t *testing.T) {
	const qubits = 7 // 8-amplitude blocks: qubit 4 is a block qubit
	circuit := func(theta float64) *quantum.Circuit {
		c := quantum.NewCircuit(qubits)
		for q := range qubits {
			c.H(q).RX(q, 0.3+float64(0.1*float64(q)))
		}
		c.CNOT(0, 4).RY(4, theta).CNOT(0, 4)
		for q := range qubits {
			c.RX(q, 0.2)
		}
		return c
	}
	cs := []*quantum.Circuit{circuit(0), circuit(0.3)}
	for _, workers := range []int{1, 2} {
		cfg := func(c *Config) { c.Workers = workers }
		sims := batchSims(t, qubits, 1, 8, 2, cfg)
		traj := splice(sims, cs)
		for v, plan := range traj.plans(sims) {
			n := 0
			for _, sw := range plan {
				n += len(sw.Units)
			}
			if want := 1 - v; n != want {
				t.Fatalf("variant %d plans %d units, want %d", v, n, want)
			}
		}
		if err := RunBatch(sims, cs, RunControl{}); err != nil {
			t.Fatal(err)
		}
		for v, s := range sims {
			solo := newSim(t, qubits, 1, 8, func(c *Config) { cfg(c); c.Seed = VariantSeed(1, v) })
			if err := solo.Run(cs[v]); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("workers=%d variant %d vs solo", workers, v)
			assertBitIdentical(t, s, solo, label)
			assertBlobsIdentical(t, s, solo, label)
		}
	}
}

// TestRunBatchForksSeeZZUnits: a parameter-shift batch over a QAOA
// ansatz whose cost-layer units have v on block qubits shifts every
// unit's angle in turn; the shifted variants run as forks of variant
// 0's walk, parting at a unit, and each must end where its solo run
// does, bit for bit, on 1, 2 and 4 workers.
func TestRunBatchForksSeeZZUnits(t *testing.T) {
	const qubits, block = 8, 8 // qubits 3..7 index the blocks
	ansatz := quantum.QAOAAnsatzGraph(qubits, 1, quantum.RandomRegularGraph(qubits, 4, 3))
	values := quantum.QAOAAngles(1, 3)
	base, err := ansatz.Bind(values)
	if err != nil {
		t.Fatal(err)
	}
	cs := []*quantum.Circuit{base}
	for _, occ := range ansatz.ParamOccurrences() {
		c, err := ansatz.BindShift(values, occ.Gate, math.Pi/2)
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	blockUnits := 0
	for _, sw := range newSim(t, qubits, 1, block, nil).planSweeps(base.Gates) {
		for _, u := range sw.Units {
			if base.Gates[sw.Start+u].Target >= 3 {
				blockUnits++
			}
		}
	}
	if blockUnits == 0 {
		t.Fatal("no unit has v on a block qubit; the test is vacuous")
	}
	solos := make([]*Simulator, len(cs))
	var soloApplied int64
	for v, c := range cs {
		solos[v] = newSim(t, qubits, 1, block, func(cfg *Config) { cfg.Seed = VariantSeed(1, v) })
		if err := solos[v].Run(c); err != nil {
			t.Fatal(err)
		}
		soloApplied += applied(solos[v])
	}
	for _, workers := range []int{1, 2, 4} {
		sims := batchSims(t, qubits, 1, block, len(cs), func(c *Config) { c.Workers = workers })
		if err := RunBatch(sims, cs, RunControl{}); err != nil {
			t.Fatal(err)
		}
		var batchApplied int64
		for v, s := range sims {
			assertBitIdentical(t, s, solos[v], fmt.Sprintf("workers=%d variant %d vs solo", workers, v))
			batchApplied += applied(s)
		}
		if batchApplied >= soloApplied {
			t.Fatalf("workers=%d: the batch ran %d gate applications, its solo runs %d; nothing forked", workers, batchApplied, soloApplied)
		}
	}
}

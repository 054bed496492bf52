package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"qcsim/internal/compress"
	"qcsim/internal/compress/lossless"
	"qcsim/internal/quantum"
)

// workingLossless returns the default level-0 codec for tests that wrap
// it in a failure-injecting shim (Config hooks run before withDefaults,
// so Config.Lossless is still nil inside newSim's extra func).
func workingLossless() compress.Codec { return lossless.New(false) }

// runSweepPair executes the same circuit on two identically configured
// simulators, one with the sweep scheduler and one without, and returns
// both for inspection.
func runSweepPair(t *testing.T, cir *quantum.Circuit, ranks, blockAmps, workers int, extra func(*Config)) (on, off *Simulator) {
	t.Helper()
	mk := func(disable bool) *Simulator {
		return newSim(t, cir.N, ranks, blockAmps, func(c *Config) {
			c.Workers = workers
			c.DisableSweeps = disable
			if extra != nil {
				extra(c)
			}
		})
	}
	on, off = mk(false), mk(true)
	if err := on.Run(cir); err != nil {
		t.Fatalf("sweeps-on run: %v", err)
	}
	if err := off.Run(cir); err != nil {
		t.Fatalf("sweeps-off run: %v", err)
	}
	return on, off
}

// assertBitIdentical compares full states, measurement logs, and (when
// checkLedger) the fidelity ledgers of two simulators bit-for-bit.
func assertBitIdentical(t *testing.T, a, b *Simulator, label string) {
	t.Helper()
	sa, err := a.FullState()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.FullState()
	if err != nil {
		t.Fatal(err)
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("%s: amplitude %d differs: %v vs %v", label, i, sa[i], sb[i])
		}
	}
	ma, mb := a.Measurements(), b.Measurements()
	if len(ma) != len(mb) {
		t.Fatalf("%s: measurement counts differ: %v vs %v", label, ma, mb)
	}
	for i := range ma {
		if ma[i] != mb[i] {
			t.Fatalf("%s: measurement %d differs: %v vs %v", label, i, ma, mb)
		}
	}
}

// assertBlobsIdentical compares the stored compressed blocks of two
// simulators byte for byte.
func assertBlobsIdentical(t *testing.T, a, b *Simulator, label string) {
	t.Helper()
	for r := range a.ranks {
		for blk := 0; blk < a.blocksPerRank(); blk++ {
			ba, err := a.ranks[r].store.Peek(blk)
			if err != nil {
				t.Fatal(err)
			}
			bb, err := b.ranks[r].store.Peek(blk)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ba, bb) {
				t.Fatalf("%s: rank %d block %d blobs differ", label, r, blk)
			}
		}
	}
}

// TestQuickSweepsBitIdentical is the sweep scheduler's master property:
// for ANY circuit (including intermediate measurements and gates
// controlled from every segment), ANY geometry, worker count, block
// store and cache setting, pair sweeps and gate-at-a-time execution
// produce bit-identical amplitudes, compressed blocks, measurement
// outcomes, and ledgers under the lossless codec. The sweep run samples
// the footprint at a subset of the gate-at-a-time boundaries, so its
// peak may only be lower. Run under -race in CI, this doubles as the
// data-race check on the pass's worker fan-out.
func TestQuickSweepsBitIdentical(t *testing.T) {
	f := func(seed int64, geomSel, workerSel, gateCount, storeSel, cacheSel uint8) bool {
		qubits := 7
		geoms := []struct{ ranks, block int }{
			{1, 128}, {1, 16}, {2, 16}, {4, 8}, {2, 64}, {1, 4}, {4, 2},
		}
		g := geoms[int(geomSel)%len(geoms)]
		workers := 1 + int(workerSel)%4
		gates := 20 + int(gateCount)%60
		cir := quantum.RandomCircuit(qubits, gates, seed)
		cir.Measure(int(uint64(seed) % uint64(qubits)))
		cir.H(0).CNOT(0, qubits-1).T(1)
		spill := spillCfg(t, 256)
		on, off := runSweepPair(t, cir, g.ranks, g.block, workers, func(c *Config) {
			if storeSel%2 == 1 {
				spill(c)
			}
			if cacheSel%2 == 1 {
				c.CacheLines = 64
			}
		})
		assertBitIdentical(t, on, off, "sweeps on/off")
		assertBlobsIdentical(t, on, off, "sweeps on/off")
		if on.FidelityLowerBound() != off.FidelityLowerBound() {
			t.Logf("seed %d: lossless ledgers differ: %v vs %v", seed, on.FidelityLowerBound(), off.FidelityLowerBound())
			return false
		}
		if mOn, mOff := on.Stats().MaxFootprint, off.Stats().MaxFootprint; mOn > mOff {
			t.Logf("seed %d: sweep peak %d above gate-at-a-time peak %d", seed, mOn, mOff)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockControlInsideSweepWithCache: on a redundant state every block
// holds the same bytes, so within one sweep the cache sees equal inputs
// under one signature for blocks on which DIFFERENT gates fire (a block
// control selects them). The key's control variant keeps those apart;
// without it the first block's output would be handed to all.
func TestBlockControlInsideSweepWithCache(t *testing.T) {
	// 3 offset | 3 block bits, one rank: qubits 3..5 index the block.
	cir := quantum.NewCircuit(6)
	for q := 0; q < 6; q++ {
		cir.H(q) // uniform: all 8 blocks byte-identical
	}
	// One pair sweep on block target 3: gates controlled from block
	// qubits 4 and 5 and from the pair qubit itself.
	cir.T(0).CPhase(4, 1, 0.3).ApplyControlled("ch", quantum.MatH, 3, 5).CPhase(3, 2, 0.7).T(1)
	// And one with no block target at all.
	cir.H(4).CPhase(5, 0, 1.1).CPhase(3, 1, 0.2).CCZ(4, 5, 2)
	run := func(lines int) *Simulator {
		s := newSim(t, 6, 1, 8, func(c *Config) { c.CacheLines = lines })
		if err := s.Run(cir); err != nil {
			t.Fatal(err)
		}
		return s
	}
	cached, plain := run(64), run(0)
	assertBitIdentical(t, cached, plain, "cache on/off")
	assertBlobsIdentical(t, cached, plain, "cache on/off")
	if cached.Stats().CacheHits == 0 {
		t.Fatal("the redundant state never hit the cache; test is vacuous")
	}
	compareToReference(t, newSim(t, 6, 1, 8, func(c *Config) { c.CacheLines = 64 }), cir, 1e-12)
}

// TestSweepStats pins what the counters mean on a hand-checked plan:
// 2 offset | 2 block bits, one rank, four blocks.
func TestSweepStats(t *testing.T) {
	cir := quantum.NewCircuit(4)
	// Sweep 1 (block target 2): H(0) fires on all 4 blocks, H(2) on both
	// pairs, CNOT(3→1) on the two blocks with bit 3 set.
	cir.H(0).H(2).CNOT(3, 1)
	// Sweep 2 (block target 3): a lone cross-block gate.
	cir.H(3)
	s := newSim(t, 4, 1, 4, nil)
	base := s.Stats()
	var progress []int
	polls := 0
	err := s.RunControlled(cir, RunControl{
		PollAbort: func() error { polls++; return nil },
		OnGate:    func(gi, total int, _ quantum.Gate) { progress = append(progress, gi) },
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Sweeps != 2 || st.SweepGates != 4 {
		t.Fatalf("%d sweeps over %d gates, want 2 over 4", st.Sweeps, st.SweepGates)
	}
	// Blocks 0,1 see 2 gates (1 saved each), blocks 2,3 see 3 (2 saved
	// each); sweep 2 is one gate per block, nothing saved.
	if st.CodecPassesSaved != 6 {
		t.Fatalf("CodecPassesSaved = %d, want 6", st.CodecPassesSaved)
	}
	if enc := st.CompressCalls - base.CompressCalls; enc != 8 {
		t.Fatalf("%d encode calls, want 8 (two passes over four blocks)", enc)
	}
	if polls != 2 || len(progress) != 4 {
		t.Fatalf("%d abort polls and %d progress events, want 2 and 4", polls, len(progress))
	}
	for i, gi := range progress {
		if gi != i {
			t.Fatalf("progress out of order: %v", progress)
		}
	}
}

// TestCacheReleasedWhenRunReturns: cache lines pin their blobs outside
// every footprint ledger, so a run drops them on every way out —
// success, abort, codec error — while the cache stays enabled and the
// next run hits again within its own passes.
func TestCacheReleasedWhenRunReturns(t *testing.T) {
	lines := func(s *Simulator) int {
		n := 0
		for _, rs := range s.ranks {
			if tab := rs.cache.table.Load(); tab != nil {
				n += len(*tab)
			}
		}
		return n
	}
	cir := quantum.Grover(5, 11, 2)
	calls := int64(1 << 30)
	s := newSim(t, cir.N, 2, 8, func(c *Config) {
		c.CacheLines = 64
		c.Lossless = compressFailAfterCodec{workingLossless(), &calls}
	})
	if err := s.Run(cir); err != nil {
		t.Fatal(err)
	}
	first := s.Stats()
	if first.CacheHits == 0 {
		t.Fatal("Grover never hit the cache; test is vacuous")
	}
	if n := lines(s); n != 0 {
		t.Fatalf("%d cache lines held after a successful run", n)
	}
	if err := s.Run(cir); err != nil {
		t.Fatal(err)
	}
	if s.Stats().CacheHits == first.CacheHits {
		t.Fatal("the run after a release never hit the cache")
	}
	stop := errors.New("stop")
	polls := 0
	err := s.RunControlled(cir, RunControl{PollAbort: func() error {
		if polls++; polls > 3 {
			return stop
		}
		return nil
	}})
	if !errors.Is(err, stop) {
		t.Fatalf("abort not reported: %v", err)
	}
	if n := lines(s); n != 0 {
		t.Fatalf("%d cache lines held after an aborted run", n)
	}
	atomic.StoreInt64(&calls, 40) // fail partway into the next run
	if err := s.Run(cir); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("codec failure not reported: %v", err)
	}
	if n := lines(s); n != 0 {
		t.Fatalf("%d cache lines held after a failed run", n)
	}
	for _, rs := range s.ranks {
		if !rs.cache.enabled() {
			t.Fatal("release shut the cache off")
		}
	}
}

// TestSweepsBitIdenticalWithCache: the sweep-keyed block cache must not
// change any bits either.
func TestSweepsBitIdenticalWithCache(t *testing.T) {
	cir := quantum.Grover(5, 11, 2)
	on, off := runSweepPair(t, cir, 2, 8, 2, func(c *Config) { c.CacheLines = 64 })
	assertBitIdentical(t, on, off, "sweeps on/off with cache")
	if on.Stats().CacheLookups == 0 {
		t.Fatal("sweep path never consulted the cache")
	}
}

// TestSweepCodecReductionGrover is the ISSUE acceptance criterion: on
// the Grover example circuit the sweep scheduler must cut codec
// invocations at least 2× versus gate-at-a-time execution while
// producing bit-identical amplitudes under the lossless codec.
func TestSweepCodecReductionGrover(t *testing.T) {
	// The examples/grover workload at test scale: a real register plus
	// Toffoli-ladder ancillas, several amplification iterations.
	cir := quantum.Grover(6, 0x2D, quantum.GroverOptimalIterations(6))
	on, off := runSweepPair(t, cir, 1, 64, 2, nil)
	assertBitIdentical(t, on, off, "grover")

	stOn, stOff := on.Stats(), off.Stats()
	callsOn := stOn.CompressCalls + stOn.DecompressCalls
	callsOff := stOff.CompressCalls + stOff.DecompressCalls
	if callsOn == 0 || callsOff == 0 {
		t.Fatalf("codec call counters not tracked: on=%d off=%d", callsOn, callsOff)
	}
	if ratio := float64(callsOff) / float64(callsOn); ratio < 2 {
		t.Fatalf("sweeps reduced codec invocations only %.2fx (%d -> %d), want >= 2x", ratio, callsOff, callsOn)
	}
	if stOn.Sweeps == 0 || stOn.SweepGates <= stOn.Sweeps {
		t.Fatalf("sweep counters implausible: %d sweeps over %d gates", stOn.Sweeps, stOn.SweepGates)
	}
	if stOn.CodecPassesSaved == 0 {
		t.Fatal("no codec passes recorded as saved")
	}
	if stOff.Sweeps != 0 || stOff.CodecPassesSaved != 0 {
		t.Fatalf("sweeps-off run recorded sweep activity: %+v", stOff)
	}
	t.Logf("grover: %d codec calls gate-at-a-time, %d with sweeps (%.1fx), %d sweeps / %d gates, %d passes saved",
		callsOff, callsOn, float64(callsOff)/float64(callsOn), stOn.Sweeps, stOn.SweepGates, stOn.CodecPassesSaved)
}

// TestSweepLedgerTightens: under a lossy budget, one recompression per
// sweep means one (1-δ) ledger charge per sweep — the Eq. 11 bound must
// never be looser than gate-at-a-time's.
func TestSweepLedgerTightens(t *testing.T) {
	cir := quantum.QAOA(10, 2, 7)
	on, off := runSweepPair(t, cir, 2, 16, 2, func(c *Config) { c.MemoryBudget = 2048 })
	lOn, lOff := on.FidelityLowerBound(), off.FidelityLowerBound()
	if lOff >= 1 {
		t.Fatalf("budget never forced lossy compression (ledger %v); test is vacuous", lOff)
	}
	if lOn < lOff {
		t.Fatalf("sweeps loosened the fidelity bound: %v < %v", lOn, lOff)
	}
}

// TestBudgetHoldsAtRest: a boundary that finds the state over budget
// escalates AND requantizes until it fits, so every successful Run —
// solo or batched, sweeps on or off — returns with each rank's resident
// bytes within the budget, each escalation paired with exactly one
// requantize pass and one extra ledger factor.
func TestBudgetHoldsAtRest(t *testing.T) {
	const qubits = 10
	atRest := func(s *Simulator, label string) {
		t.Helper()
		if s.OverBudget() {
			t.Fatalf("%s: ladder exhausted; budget too tight for the test", label)
		}
		for _, rs := range s.ranks {
			s.syncStoreStats(rs)
			if rs.stats.ResidentFootprint > s.cfg.MemoryBudget {
				t.Fatalf("%s: rank %d rests at %d B over the %d B budget", label, rs.id, rs.stats.ResidentFootprint, s.cfg.MemoryBudget)
			}
		}
	}
	for _, disable := range []bool{false, true} {
		s := newSim(t, qubits, 2, 64, func(c *Config) {
			c.MemoryBudget = 2048 // a quarter of a rank's 8 KB share
			c.DisableSweeps = disable
			c.Workers = 2
		})
		for _, cir := range []*quantum.Circuit{quantum.QFT(qubits, 3), quantum.QAOA(qubits, 1, 5), quantum.RandomCircuit(qubits, 40, 9)} {
			if err := s.Run(cir); err != nil {
				t.Fatal(err)
			}
			atRest(s, "solo run")
		}
		if s.Stats().Escalations == 0 {
			t.Fatal("the budget never forced an escalation; test is vacuous")
		}
	}

	// Each escalation is paired with exactly one requantize pass, which
	// charges the ledger in a round of its own on top of the sweep's.
	s := newSim(t, qubits, 1, 64, func(c *Config) { c.MemoryBudget = 4096 })
	if err := s.Run(quantum.QFT(qubits, 3)); err != nil {
		t.Fatal(err)
	}
	atRest(s, "one rank")
	want, requants, rounds := 1.0, 0, s.ledgerRounds()
	for i, lvl := range s.gateLevel {
		if lvl > 0 {
			want *= 1 - s.cfg.ErrorLevels[lvl-1]
			if i%rounds > 0 {
				requants++
			}
		}
	}
	if esc := s.Stats().Escalations; esc == 0 || requants != esc {
		t.Fatalf("%d requantize charges for %d escalations", requants, esc)
	}
	if got := s.FidelityLowerBound(); got != want {
		t.Fatalf("ledger %v, the run's charges multiply to %v", got, want)
	}

	// Batched variants rest within the budget too.
	sims := batchSims(t, qubits, 1, 64, 3, func(c *Config) { c.MemoryBudget = 4096 })
	ansatz := quantum.QAOAAnsatz(qubits, 1, 4)
	circuits := make([]*quantum.Circuit, len(sims))
	for v := range circuits {
		c, err := ansatz.Bind(quantum.QAOAAngles(1, int64(4+v)))
		if err != nil {
			t.Fatal(err)
		}
		circuits[v] = c
	}
	if err := RunBatch(sims, circuits, RunControl{}); err != nil {
		t.Fatal(err)
	}
	for _, v := range sims {
		atRest(v, "batch variant")
		if v.Stats().Escalations == 0 {
			t.Fatal("the batch never escalated; test is vacuous")
		}
	}
}

// TestSweepsDisabledByNoise: a noise channel must force gate-at-a-time
// execution (the depolarizing draw fires after every gate).
func TestSweepsDisabledByNoise(t *testing.T) {
	s := newSim(t, 6, 1, 16, nil)
	if err := s.SetNoise(&NoiseModel{Prob: 0.1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(quantum.NewCircuit(6).H(0).H(1).H(2)); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Sweeps != 0 {
		t.Fatalf("noisy run still used the sweep path: %+v", st)
	}
}

// --- measurement error propagation (the second ISSUE bugfix) ---

// compressFailAfterCodec works for the first n Compress calls (enough
// to survive Reset) and then fails, reaching the collapse phase of a
// measurement. The counter is atomic: compression runs on worker
// goroutines.
type compressFailAfterCodec struct {
	compress.Codec
	n *int64
}

func (c compressFailAfterCodec) Compress(dst []byte, data []float64, opt compress.Options) ([]byte, error) {
	if atomic.AddInt64(c.n, -1) < 0 {
		return nil, compress.ErrCorrupt
	}
	return c.Codec.Compress(dst, data, opt)
}

// measureAfterH is H(1) then a measurement of q: sweep 0 is healthy,
// sweep 1 the measurement. On the 2-rank test geometry qubit 5 is the
// rank-segment qubit.
func measureAfterH(q int) *quantum.Circuit { return quantum.NewCircuit(6).H(1).Measure(q) }

func TestMeasurementDecompressFailureIsWrappedError(t *testing.T) {
	for _, k := range []int{1, 3} {
		for _, q := range []int{0, 5} {
			// The probability sweep hits the failing decode.
			sims, err := runWithFault(t, k, func(c *Config) { c.Workers = 2 },
				measureAfterH(q), codecFault{dec: true, at: 1})
			if want := fmt.Sprintf("measure qubit %d", q); !strings.Contains(err.Error(), want) {
				t.Fatalf("K=%d: error lacks measurement context %q: %v", k, want, err)
			}
			// The failure was agreed before the broken variant's outcome
			// draw and the sweep barrier withheld the others': nothing
			// is recorded, and the simulators still answer.
			for v, s := range sims {
				if got := s.Measurements(); len(got) != 0 {
					t.Fatalf("K=%d: variant %d recorded an outcome of the failed sweep: %v", k, v, got)
				}
			}
		}
	}
}

func TestMeasurementCollapseFailureIsWrappedError(t *testing.T) {
	for _, k := range []int{1, 3} {
		// Decoding still works, so the probability phase passes and the
		// next compression — the collapse — fails.
		sims, err := runWithFault(t, k, nil, measureAfterH(1), codecFault{enc: true, at: 1})
		if !strings.Contains(err.Error(), "collapse") {
			t.Fatalf("K=%d: error lacks collapse context: %v", k, err)
		}
		for v, s := range sims {
			if got := s.Measurements(); len(got) != 0 {
				t.Fatalf("K=%d: variant %d recorded an outcome of the failed sweep: %v", k, v, got)
			}
		}
	}
}

// TestUnitaryCodecFailureReturnsError: the same no-panic contract on
// the unitary paths, including the cross-rank exchange, which must keep
// its SendRecv protocol alive on error instead of deadlocking peers.
func TestUnitaryCodecFailureReturnsError(t *testing.T) {
	// Qubit 5 lives in the rank segment, so the plan is three sweeps: a
	// local pass, a cross-rank exchange, a local pass.
	cir := quantum.NewCircuit(6).H(1).H(5).H(0)
	for _, k := range []int{1, 3} {
		for at := 1; at <= 2; at++ {
			runWithFault(t, k, nil, cir, codecFault{dec: true, at: at})
		}
	}
}

package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"qcsim/internal/blockstore"
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

// assertBitIdentical compares the full states and measurement logs of
// two simulators bit for bit: the bits of every component, so −0 and +0
// differ.
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
		if !sameBits(sa[i], sb[i]) {
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

// zeroSignFlips compares the full states of two simulators under a ZZ
// unit's ±0 rule (sweep.go): each component equal bit for bit, or both
// zero. It returns how many zero components differ in sign, or an error
// naming the first component that breaks the rule.
func zeroSignFlips(a, b *Simulator) (flips int, err error) {
	sa, err := a.FullState()
	if err != nil {
		return 0, err
	}
	sb, err := b.FullState()
	if err != nil {
		return 0, err
	}
	for i := range sa {
		for _, c := range [][2]float64{{real(sa[i]), real(sb[i])}, {imag(sa[i]), imag(sb[i])}} {
			switch {
			case math.Float64bits(c[0]) == math.Float64bits(c[1]):
			case c[0] == 0 && c[1] == 0:
				flips++
			default:
				return flips, fmt.Errorf("amplitude %d differs: %v vs %v", i, sa[i], sb[i])
			}
		}
	}
	return flips, nil
}

// plannedUnits counts the ZZ units s's plan for gates names.
func plannedUnits(s *Simulator, gates []quantum.Gate) (n int) {
	for _, sw := range s.planSweeps(gates) {
		n += len(sw.Units)
	}
	return n
}

// sameBits reports whether x and y have the same bits in both
// components; x == y would call −0 and +0 equal.
func sameBits(x, y complex128) bool {
	return math.Float64bits(real(x)) == math.Float64bits(real(y)) &&
		math.Float64bits(imag(x)) == math.Float64bits(imag(y))
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
// store and cache setting, group sweeps and gate-at-a-time execution
// produce bit-identical amplitudes, compressed blocks, measurement
// outcomes, and ledgers under the lossless codec. The sweep run samples
// the footprint at a subset of the gate-at-a-time boundaries, so its
// peak may only be lower. RandomCircuit draws ZZ units, which keep the
// weaker ±0 rule: the amplitudes are compared under it, and the blobs
// and the peak (which a zero's sign can move by a byte) only when no
// zero changed sign; without a unit none may. Run under -race in CI,
// this doubles as the data-race check on the pass's worker fan-out.
func TestQuickSweepsBitIdentical(t *testing.T) {
	var withUnits, flipped int
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
		flips, err := zeroSignFlips(on, off)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		units := plannedUnits(on, cir.Gates)
		if flips > 0 && units == 0 {
			t.Logf("seed %d: %d zeros changed sign with no ZZ unit planned", seed, flips)
			return false
		}
		withUnits, flipped = withUnits+min(units, 1), flipped+min(flips, 1)
		if !slices.Equal(on.Measurements(), off.Measurements()) {
			t.Logf("seed %d: measurements differ: %v vs %v", seed, on.Measurements(), off.Measurements())
			return false
		}
		if on.FidelityLowerBound() != off.FidelityLowerBound() {
			t.Logf("seed %d: lossless ledgers differ: %v vs %v", seed, on.FidelityLowerBound(), off.FidelityLowerBound())
			return false
		}
		if flips > 0 {
			return true
		}
		assertBlobsIdentical(t, on, off, "sweeps on/off")
		if mOn, mOff := on.Stats().MaxFootprint, off.Stats().MaxFootprint; mOn > mOff {
			t.Logf("seed %d: sweep peak %d above gate-at-a-time peak %d", seed, mOn, mOff)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d circuits planned ZZ units, %d of them changed a zero's sign", withUnits, flipped)
}

// TestGroupSweepsBitIdentical holds 4- and 8-block group sweeps to
// gate-at-a-time execution where they differ most from a pair: two or
// three block-segment targets in one sweep, each controlled on another,
// on a block qubit outside the group and on the rank qubit, with offset
// targets controlled on group qubits in between
// (assertBatchesMatchGateAtATime).
func TestGroupSweepsBitIdentical(t *testing.T) {
	// 2 ranks of 8-amplitude blocks: qubits 0..2 offset, 3..5 block, 6 rank.
	const qubits = 7
	par := quantum.NewCircuit(qubits)
	for q := 0; q < qubits; q++ {
		par.H(q)
	}
	par.PRY(3, quantum.P(0)).ApplyControlled("ch", quantum.MatH, 3, 4).CNOT(3, 4).CPhase(4, 0, 0.3).
		CPhase(5, 3, 0.7).CNOT(6, 4).PRX(4, quantum.P(0)).CCZ(3, 4, 1)
	par.H(5).CNOT(5, 3).CCZ(3, 5, 2).PRZ(5, quantum.P(0)).ApplyControlled("ch", quantum.MatH, 3, 4, 5)
	par.Gates = append(par.Gates, quantum.RandomCircuit(qubits, 30, 3).Gates...)
	byTargets := map[int]int{} // sweeps by distinct block targets
	for _, sw := range quantum.PlanGroupSweeps(par.Gates, 3, 3, 3) {
		ts := map[int]bool{}
		for _, g := range par.Gates[sw.Start:sw.End] {
			if sw.Pass && g.Target >= 3 && g.Target < 6 {
				ts[g.Target] = true
			}
		}
		byTargets[len(ts)]++
	}
	if byTargets[2] < 2 || byTargets[3] < 2 {
		t.Fatalf("sweeps by block targets %v: want at least two 4-block and two 8-block groups; the test is vacuous", byTargets)
	}
	assertBatchesMatchGateAtATime(t, par, 2)
}

// assertBatchesMatchGateAtATime runs par, a one-parameter circuit on 7
// qubits of 8-amplitude blocks over ranks ranks, solo and as a 3-variant
// batch, with the block cache on and off, through the spill tier and on
// the in-RAM store, on 1, 2 and 4 workers, against gate-at-a-time runs
// of each variant: amplitudes, compressed blocks and ledgers must be
// equal bit for bit.
func assertBatchesMatchGateAtATime(t *testing.T, par *quantum.Circuit, ranks int) {
	t.Helper()
	for _, k := range []int{1, 3} {
		circuits := make([]*quantum.Circuit, k)
		for v := range circuits {
			c, err := par.Bind([]float64{0.3 + float64(0.4*float64(v))})
			if err != nil {
				t.Fatal(err)
			}
			circuits[v] = c
		}
		for _, workers := range []int{1, 2, 4} {
			for _, lines := range []int{0, 64} {
				for _, spill := range []bool{true, false} {
					cfg := func(c *Config) {
						c.Workers, c.CacheLines = workers, lines
						if spill {
							spillCfg(t, 256)(c)
						}
					}
					sims := batchSims(t, par.N, ranks, 8, k, cfg)
					if err := RunBatch(sims, circuits, RunControl{}); err != nil {
						t.Fatal(err)
					}
					for v, s := range sims {
						off := newSim(t, par.N, ranks, 8, func(c *Config) {
							cfg(c)
							c.DisableSweeps, c.Seed = true, VariantSeed(1, v)
						})
						if err := off.Run(circuits[v]); err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("ranks=%d K=%d workers=%d lines=%d spill=%v variant %d", ranks, k, workers, lines, spill, v)
						assertBitIdentical(t, s, off, label)
						assertBlobsIdentical(t, s, off, label)
						if s.FidelityLowerBound() != off.FidelityLowerBound() {
							t.Fatalf("%s: ledgers differ: %v vs %v", label, s.FidelityLowerBound(), off.FidelityLowerBound())
						}
					}
					if st := sims[0].Stats(); spill && st.SpillWrites == 0 {
						t.Fatalf("ranks=%d K=%d workers=%d lines=%d: nothing spilled", ranks, k, workers, lines)
					}
				}
			}
		}
	}
}

// rankSweepCircuit is TestRankSweepsBitIdentical's circuit, one
// parameter wide. On 2 ranks of 8-amplitude blocks qubits 0..2 are
// offset, 3..5 block and 6 the rank qubit; the measurements end sweeps.
func rankSweepCircuit() *quantum.Circuit {
	const qubits = 7
	c := quantum.NewCircuit(qubits)
	for q := 0; q < qubits; q++ {
		c.H(q) // the block targets 3, 4, 5 fill a sweep; H(6) opens the next
	}
	// The rank target beside offset gates only, with SWAP(0, 6)'s middle
	// CNOT controlled on the rank bit and an offset gate after the last
	// rank-target gate.
	c.PRY(6, quantum.P(0)).SWAP(0, 6).CPhase(1, 6, 0.3).S(2).Measure(2)
	// One block target: offset and block gates before the first
	// rank-target gate; the rank-target gates fire only on the members
	// whose block bit 3 is set, and the H(3) between them joins those
	// pairs to the ones no rank-target gate fires on; SWAP(3, 6)'s middle
	// CNOT, a rank-bit control on a block target; a rank-controlled
	// offset gate and an offset gate after the last rank-target gate.
	c.T(1).H(3).CNOT(3, 6).H(3).SWAP(3, 6).CPhase(6, 1, 0.5).T(0).Measure(1)
	// Two block targets beside the rank target, every rank-target gate
	// controlled on block bit 3 outside the group: on the groups based
	// where it is clear no pair crosses.
	c.T(2).H(4).Toffoli(3, 4, 6).Toffoli(3, 6, 5).ApplyControlled("ch", quantum.MatH, 6, 3).
		CPhase(5, 1, 0.3).H(5).PRZ(5, quantum.P(0)).Measure(0)
	// On 4 ranks qubits 5 and 6 are both rank qubits: a rank target
	// controlled on the other rank bit, then the other rank target.
	c.H(6).CPhase(5, 6, 0.9).PRX(6, quantum.P(0)).ApplyControlled("ch", quantum.MatH, 5, 6).CNOT(0, 5)
	c.Gates = append(c.Gates, quantum.RandomCircuit(qubits, 30, 5).Gates...)
	return c
}

// TestRankSweepsBitIdentical holds sweeps that carry a rank-segment
// target to gate-at-a-time execution: the rank target beside 0, 1 and 2
// block targets, rank-bit controls on offset and block targets, block
// controls that silence some groups, offset gates before the first and
// after the last rank-target gate, and on 4 ranks a control on the other
// rank bit (assertBatchesMatchGateAtATime).
func TestRankSweepsBitIdentical(t *testing.T) {
	par := rankSweepCircuit()
	// rankSweeps counts the plan's sweeps with a rank target, those of
	// them with two block targets too, and those with a control on a rank
	// qubit other than the target.
	rankSweeps := func(offsetBits, blockBits int) (n, twoBlock, otherRank int) {
		rankBase := offsetBits + blockBits
		for _, sw := range quantum.PlanGroupSweeps(par.Gates, offsetBits, blockBits, 3) {
			blocks, rank := map[int]bool{}, -1
			for _, g := range par.Gates[sw.Start:sw.End] {
				switch {
				case g.Kind != quantum.KindUnitary || g.Target < offsetBits:
				case g.Target < rankBase:
					blocks[g.Target] = true
				default:
					rank = g.Target
				}
			}
			if rank < 0 {
				continue
			}
			n++
			if len(blocks) == 2 {
				twoBlock++
			}
			for _, g := range par.Gates[sw.Start:sw.End] {
				for _, c := range g.Controls {
					if c >= rankBase && c != rank {
						otherRank++
					}
				}
			}
		}
		return n, twoBlock, otherRank
	}
	if n, two, _ := rankSweeps(3, 3); n < 2 || two < 1 {
		t.Fatalf("2 ranks: %d sweeps carry the rank target, %d of them two block targets; the test is vacuous", n, two)
	}
	if _, _, other := rankSweeps(3, 2); other == 0 {
		t.Fatal("4 ranks: no rank-target sweep has a control on the other rank bit; the test is vacuous")
	}
	for _, ranks := range []int{2, 4} {
		assertBatchesMatchGateAtATime(t, par, ranks)
	}
}

// zzUnitCircuit is TestSweepZZUnitBitIdentical's circuit, one parameter
// wide: a dense QAOA-style state — H and a rotation on every qubit —
// and ZZ units on every pair of segments. On 2 ranks of 8-amplitude
// blocks qubits 0..2 are offset, 3..5 block and 6 the rank qubit; on 4
// ranks 5 is a rank qubit too.
func zzUnitCircuit() *quantum.Circuit {
	const qubits = 7
	c := quantum.NewCircuit(qubits)
	for q := range qubits {
		c.H(q).PRX(q, quantum.P(0))
	}
	zz := func(u, v int) { c.CNOT(u, v).PRZ(v, quantum.P(0).Times(2)).CNOT(u, v) }
	// u offset, block and rank; v offset, block and rank; at 4 ranks
	// (5, 6) is two rank qubits.
	for _, e := range [][2]int{{0, 3}, {4, 5}, {6, 4}, {1, 6}, {3, 6}, {5, 6}, {2, 4}, {1, 2}, {4, 0}, {6, 1}} {
		zz(e[0], e[1])
	}
	for q := range qubits {
		c.PRX(q, quantum.P(0))
	}
	// An exchange sweep: the rank target 6, then units on the exchanged
	// rank bit as v and as u (v a block and an offset qubit), then the
	// rank target again.
	c.RY(6, 0.7)
	zz(2, 6)
	zz(6, 3)
	zz(6, 0)
	c.RX(6, 0.4).T(6).Measure(0)
	for _, e := range [][2]int{{1, 5}, {5, 3}, {0, 4}} {
		zz(e[0], e[1])
	}
	for q := range qubits {
		c.PRX(q, quantum.P(0))
	}
	return c
}

// TestSweepZZUnitBitIdentical holds ZZ units to gate-at-a-time
// execution on a dense state, where the ±0 rule leaves no sign to
// differ: bits, blobs and ledgers, with u and v on offset, block and
// rank bits (v an offset bit with u in each segment), at 2 and 4 ranks, a unit on the exchanged rank bit inside
// an exchange sweep (2 ranks), K = 1 and 3, 1, 2 and 4 workers, the
// block cache on and off, spill on and off. The codec passes saved
// still count against gate-at-a-time: a unit counts the gates of its
// triple that fire on a member.
func TestSweepZZUnitBitIdentical(t *testing.T) {
	par := zzUnitCircuit()
	// segments names each planned unit by the segments of u and v, and
	// marks one whose u or v is the exchanged rank bit of its sweep.
	segments := func(offsetBits, blockBits int) map[string]bool {
		rankBase := offsetBits + blockBits
		seg := func(q int) string {
			switch {
			case q < offsetBits:
				return "offset"
			case q < rankBase:
				return "block"
			}
			return "rank"
		}
		s := newSim(t, par.N, 1<<(par.N-rankBase), 1<<offsetBits, nil)
		found := map[string]bool{}
		for _, sw := range s.planSweeps(par.Gates) {
			gates := par.Gates[sw.Start:sw.End]
			for _, u := range sw.Units {
				cx := gates[u]
				found[seg(cx.Controls[0])+"/"+seg(cx.Target)] = true
				for i, g := range gates {
					if (i < u || i > u+2) && g.Target >= rankBase && (g.Target == cx.Target || g.Target == cx.Controls[0]) {
						found["exchanged"] = true
					}
				}
			}
		}
		return found
	}
	for _, want := range []string{"offset/offset", "block/offset", "rank/offset", "offset/block", "block/block", "rank/block", "offset/rank", "block/rank", "exchanged"} {
		if !segments(3, 3)[want] {
			t.Fatalf("2 ranks: no %s unit; the test is vacuous (%v)", want, segments(3, 3))
		}
	}
	if !segments(3, 2)["rank/rank"] {
		t.Fatalf("4 ranks: no rank/rank unit; the test is vacuous (%v)", segments(3, 2))
	}
	for _, ranks := range []int{2, 4} {
		assertBatchesMatchGateAtATime(t, par, ranks)
		bound, err := par.Bind([]float64{0.3})
		if err != nil {
			t.Fatal(err)
		}
		on, off := runSweepPair(t, bound, ranks, 8, 1, nil)
		st, gateAtATime := on.Stats(), off.Stats()
		if st.CompressCalls+st.CodecPassesSaved != gateAtATime.CompressCalls {
			t.Fatalf("ranks=%d: %d encodes + %d saved, gate at a time %d encodes", ranks, st.CompressCalls, st.CodecPassesSaved, gateAtATime.CompressCalls)
		}
	}
}

// TestSweepZZUnitCacheKey: on a redundant state every block holds the
// same bytes, and a ZZ unit whose parity reads block bits multiplies
// blocks of either parity by different entries, so the §3.4 key must
// read those bits (they join ctrlBits) or the first group's outputs are
// handed to groups of the other parity. Cache on, cache off and gate at
// a time must give the same bits.
func TestSweepZZUnitCacheKey(t *testing.T) {
	// 3 offset | 6 block bits, one rank.
	cir := quantum.NewCircuit(9)
	for q := range 9 {
		cir.H(q) // two sweeps; after them all 64 blocks are byte-identical
	}
	cir.Measure(1)                       // ends the sweep, and every block collapses alike
	cir.CNOT(4, 3).RZ(3, 0.9).CNOT(4, 3) // parity on block bits 1|2
	cir.CNOT(0, 7).T(7).CNOT(0, 7)       // an offset bit and block bit 16
	run := func(lines int, disable bool) (*Simulator, int64) {
		s := newSim(t, 9, 1, 8, func(c *Config) { c.CacheLines, c.Workers, c.DisableSweeps = lines, 1, disable })
		var before int64 // cache hits before the last sweep
		if err := s.RunControlled(cir, RunControl{PollAbort: func() error {
			before = s.ranks[0].stats.CacheHits
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
		return s, s.ranks[0].stats.CacheHits - before
	}
	cached, hits := run(64, false)
	plain, _ := run(0, false)
	ref, _ := run(0, true)
	// Groups of one block; the key tells apart 8 of the 64 (bits 1|2|16).
	if st := cached.Stats(); st.Sweeps != 3 || hits != 56 {
		t.Fatalf("%d sweeps, the units' one hit the cache %d times; want 3 and 56", st.Sweeps, hits)
	}
	assertBitIdentical(t, cached, ref, "cache on vs gate at a time")
	assertBitIdentical(t, plain, ref, "cache off vs gate at a time")
	assertBlobsIdentical(t, cached, ref, "cache on vs gate at a time")
}

// TestQuickRankCountBitIdentical is an oracle outside the exchange code:
// the rank count decides only where the two amplitudes of a pair live,
// never the arithmetic on them, so 1, 2 and 4 ranks — sweeps on and
// off — give the same bits, Norm and ProbabilityOne included, and one
// rank exchanges nothing at all.
// Unitary circuits only: a measurement's probability sum is added in an
// order that depends on the rank count. A run whose plan has a ZZ unit
// (RandomCircuit draws them) is held to the ±0 rule instead; one
// without may change no zero's sign.
func TestQuickRankCountBitIdentical(t *testing.T) {
	const qubits = 7
	f := func(seed int64) bool {
		cir := quantum.RandomCircuit(qubits, 60, seed)
		cir.Gates = append(cir.Gates, quantum.QFT(qubits, seed).Gates...)
		var ref *Simulator
		for _, ranks := range []int{1, 2, 4} {
			for _, disable := range []bool{true, false} {
				s := newSim(t, qubits, ranks, 8, func(c *Config) { c.DisableSweeps = disable })
				if err := s.Run(cir); err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = s
					continue
				}
				flips, err := zeroSignFlips(s, ref)
				if err == nil && flips > 0 && plannedUnits(s, cir.Gates) == 0 {
					err = fmt.Errorf("%d zeros changed sign with no ZZ unit planned", flips)
				}
				if err == nil {
					err = sameMasses(s, ref)
				}
				if err != nil {
					t.Logf("seed %d: ranks=%d sweeps off=%v against one rank gate at a time: %v", seed, ranks, disable, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockControlInsideSweepWithCache: on a redundant state every block
// holds the same bytes, so within one sweep the cache sees equal inputs
// under one signature for groups on which DIFFERENT gates fire (a block
// control selects them). The key's control variant keeps those apart;
// without it the first group's outputs would be handed to all.
func TestBlockControlInsideSweepWithCache(t *testing.T) {
	// 3 offset | 6 block bits, one rank: qubits 3..8 index the block —
	// two sweeps' worth of block targets, so the H layer ends on a sweep
	// boundary and the sweep under test starts its own.
	cir := quantum.NewCircuit(9)
	for q := 0; q < 9; q++ {
		cir.H(q) // two sweeps (targets 3, 4, 5 | 6, 7, 8); after them all 64 blocks are byte-identical
	}
	// Sweep 3, on group targets 3, 4 and 5: each controlled on another,
	// a target controlled from block qubit 6 outside the group, an offset
	// target controlled from a group qubit. Its groups are based at
	// blocks 0, 8, …, 56 and its block controls read bits 1|2|8, so bases
	// 0, 16, 32 and 48 share a key, 8, 24, 40 and 56 another — and 0 and
	// 8 hold the same inputs under different variants.
	cir.ApplyControlled("ch", quantum.MatH, 3, 4).T(0).CPhase(6, 1, 0.3).CPhase(3, 2, 0.7).
		ApplyControlled("ch", quantum.MatH, 4, 3).ApplyControlled("ch", quantum.MatH, 5, 3).
		ApplyControlled("ch", quantum.MatH, 4, 6).T(1)
	// Sweep 4, on one block target with controls inside and outside
	// its pair.
	cir.H(7).CPhase(6, 0, 1.1).CPhase(3, 1, 0.2).CCZ(4, 7, 2)
	run := func(lines int) (*Simulator, []int64) {
		s := newSim(t, 9, 1, 8, func(c *Config) { c.CacheLines, c.Workers = lines, 1 })
		var hitsAt []int64 // cache hits before each sweep
		if err := s.RunControlled(cir, RunControl{PollAbort: func() error {
			hitsAt = append(hitsAt, s.ranks[0].stats.CacheHits)
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
		return s, append(hitsAt, s.ranks[0].stats.CacheHits)
	}
	cached, hitsAt := run(64)
	plain, _ := run(0)
	assertBitIdentical(t, cached, plain, "cache on/off")
	assertBlobsIdentical(t, cached, plain, "cache on/off")
	if len(hitsAt) != 5 {
		t.Fatalf("the circuit ran as %d sweeps, want 4", len(hitsAt)-1)
	}
	if hits := hitsAt[3] - hitsAt[2]; hits != 6 {
		t.Fatalf("the block-controlled sweep hit the cache %d times, want 6 (bases 16 to 56)", hits)
	}
	compareToReference(t, newSim(t, 9, 1, 8, func(c *Config) { c.CacheLines = 64 }), cir, 1e-12)
}

// TestSweepStats pins what the counters mean on a hand-checked plan:
// 2 offset | 4 block bits, one rank, sixteen blocks; qubits 2, 3, 4, 5
// are block strides 1, 2, 4, 8. Four block bits, so that a sweep's
// three targets leave one over to start the second sweep.
func TestSweepStats(t *testing.T) {
	cir := quantum.NewCircuit(6)
	// Sweep 1 (group targets 2, 3 and 4, groups {0..7} and {8..15}):
	// H(0), H(2), H(3) and H(4) fire on all 16 blocks, CNOT(5→1) on
	// blocks 8..15, CNOT(3→2) on the pairs (2,3), (6,7), (10,11), (14,15).
	cir.H(0).H(2).CNOT(5, 1).CNOT(3, 2).H(3).H(4)
	// Sweep 2: block target 5 would be the fourth, so it starts a sweep.
	cir.H(5)
	s := newSim(t, 6, 1, 4, nil)
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
	if st.Sweeps != 2 || st.SweepGates != 7 {
		t.Fatalf("%d sweeps over %d gates, want 2 over 7", st.Sweeps, st.SweepGates)
	}
	// Sweep 1 fires 4 gates on blocks 0, 1, 4, 5 (3 saved each), 5 on
	// blocks 2, 3, 6, 7 and 8, 9, 12, 13 (4 each) and 6 on blocks 10,
	// 11, 14, 15 (5 each); sweep 2 is one gate per block, nothing saved.
	if st.CodecPassesSaved != 64 {
		t.Fatalf("CodecPassesSaved = %d, want 64", st.CodecPassesSaved)
	}
	if enc := st.CompressCalls - base.CompressCalls; enc != 32 {
		t.Fatalf("%d encode calls, want 32 (two passes over sixteen blocks)", enc)
	}
	if polls != 2 || len(progress) != 7 {
		t.Fatalf("%d abort polls and %d progress events, want 2 and 7", polls, len(progress))
	}
	for i, gi := range progress {
		if gi != i {
			t.Fatalf("progress out of order: %v", progress)
		}
	}
}

// TestCacheReleasedWhenRunReturns: cache lines pin their blobs outside
// every footprint ledger, so a run drops them on every way out —
// success, abort, codec error, a batch — while the cache stays enabled
// and the next run hits again within its own passes. The six buffers an
// 8-block group needs beyond a worker's Eq. 8 pair go with them, and so
// does the second group a batch pass forks a variant into: between runs
// no worker holds more than its pair.
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
	// wide is the most buffers beyond its pair any worker of rs holds:
	// group members and fork scratch.
	wide := func(rs *rankState) int {
		most := 0
		for _, w := range rs.workers {
			n := 0
			for _, buf := range append(w.wide[:], w.fork[:]...) {
				if buf != nil {
					n++
				}
			}
			most = max(most, n)
		}
		return most
	}
	released := func(s *Simulator, after string) {
		t.Helper()
		if n := lines(s); n != 0 {
			t.Fatalf("%d cache lines held after %s", n, after)
		}
		for _, rs := range s.ranks {
			if n := wide(rs); n != 0 {
				t.Fatalf("rank %d: a worker holds %d group buffers beyond its pair after %s", rs.id, n, after)
			}
		}
	}
	// Grover's register is qubits 0..4 and its ancillas 5 and 6; qubits
	// 3..5 index blocks and 6 the rank, so a sweep whose ladder targets
	// ancilla 5 beside qubits 3 and 4 is an 8-block group. held
	// is the most wide buffers a worker of rank 0 was seen holding at a
	// sweep boundary (rank 0 polls while the other ranks wait at the
	// broadcast): all six of an 8-block group's.
	cir := quantum.Grover(5, 11, 2)
	calls := int64(1 << 30)
	s := newSim(t, cir.N, 2, 8, func(c *Config) {
		c.CacheLines = 64
		c.Lossless = compressFailAfterCodec{workingLossless(), &calls}
	})
	held := 0
	watch := func() error {
		held = max(held, wide(s.ranks[0]))
		return nil
	}
	if err := s.RunControlled(cir, RunControl{PollAbort: watch}); err != nil {
		t.Fatal(err)
	}
	if held != groupSize-2 {
		t.Fatalf("a worker held at most %d of the %d wide buffers; the test is vacuous", held, groupSize-2)
	}
	first := s.Stats()
	if first.CacheHits == 0 {
		t.Fatal("Grover never hit the cache; test is vacuous")
	}
	released(s, "a successful run")
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
	released(s, "an aborted run")
	clone, err := s.Clone(VariantSeed(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer clone.Close()
	if err := RunBatch([]*Simulator{s, clone}, repeatCircuit(cir, 2), RunControl{}); err != nil {
		t.Fatal(err)
	}
	released(s, "a batch")
	released(clone, "a batch")
	// A variant that parts from variant 0 inside the 8-block body sweep
	// is forked off its walk; the measurement after it is a boundary at
	// which the fork group is still held.
	fork := forkBody().Measure(6)
	forks := batchSims(t, fork.N, 1, 16, 2, func(c *Config) { c.CacheLines = 64 })
	forkHeld := 0
	err = RunBatch(forks, []*quantum.Circuit{fork, partAt(fork, 5, 1)}, RunControl{PollAbort: func() error {
		forkHeld = max(forkHeld, wide(forks[0].ranks[0]))
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if forkHeld != groupSize-2+groupSize {
		t.Fatalf("a worker held at most %d buffers beyond its pair in a forking batch, want %d; the test is vacuous", forkHeld, groupSize-2+groupSize)
	}
	released(forks[0], "a forking batch")
	released(forks[1], "a forking batch")
	atomic.StoreInt64(&calls, 40) // fail partway into the next run
	held = 0
	if err := s.RunControlled(cir, RunControl{PollAbort: watch}); !errors.Is(err, compress.ErrCorrupt) {
		t.Fatalf("codec failure not reported: %v", err)
	}
	if held == 0 {
		t.Fatal("the failing run stopped before any group sweep; the test is vacuous")
	}
	released(s, "a failed run")
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

// TestBudgetKeepsPairSweeps: under a memory budget a sweep carries one
// block-segment target, so the at-rest rule still settles between the
// two pair sweeps a group would merge. Here — a 12-qubit QFT from a
// basis state under a quarter-size budget, 16-amplitude blocks — pair
// sweeps peak at 2.5 budgets and 4-block groups at 3.7, because every
// block target of the QFT doubles the blocks that hold amplitude and a
// group doubles them twice before the budget is looked at.
func TestBudgetKeepsPairSweeps(t *testing.T) {
	const qubits, blockAmps = 12, 16
	cir := quantum.NewCircuit(qubits).X(0).X(2).X(6)
	cir.Gates = append(cir.Gates, quantum.QFT(qubits, -1).Gates...)
	budget := int64(1) << (qubits + 4) / 4
	maxTargets := func(s *Simulator) int {
		most := 0
		for _, sw := range s.planSweeps(cir.Gates) {
			ts := map[int]bool{}
			for _, g := range cir.Gates[sw.Start:sw.End] {
				if sw.Pass && g.Target >= s.offsetBits {
					ts[g.Target] = true
				}
			}
			most = max(most, len(ts))
		}
		return most
	}
	if n := maxTargets(newSim(t, qubits, 1, blockAmps, nil)); n != 3 {
		t.Fatalf("without a budget the QFT's sweeps carry at most %d block targets, want 3", n)
	}
	s := newSim(t, qubits, 1, blockAmps, func(c *Config) { c.MemoryBudget = budget })
	if n := maxTargets(s); n != 1 {
		t.Fatalf("under a budget a sweep carries %d block targets, want 1", n)
	}
	if err := s.Run(cir); err != nil {
		t.Fatal(err)
	}
	if peak := s.Stats().MaxFootprint; peak > 3*budget {
		t.Fatalf("peak footprint %d is %.2f budgets; pair sweeps stay near 2.5", peak, float64(peak)/float64(budget))
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
// the unitary paths, including a sweep that exchanges groups with the
// peer rank, which must keep its SendRecv protocol alive on error
// instead of deadlocking peers — also when the fault fires once, so one
// rank fails while its peer exchanges on healthy. A block store that
// fails to read or write a blob inside a pass is held to the same
// contract, on the exchange sweep and on a fan-out sweep.
func TestUnitaryCodecFailureReturnsError(t *testing.T) {
	// Qubit 5 lives in the rank segment. The plan is a group sweep (the
	// fan-out), the measurement, and a sweep that carries the rank
	// target, where the codec faults are armed.
	cir := quantum.NewCircuit(6).H(3).H(4).H(1).Measure(2).T(0).H(5).CNOT(5, 1).H(0)
	const fanOut, at = 0, 2
	plan := newSim(t, 6, 2, 8, nil).planSweeps(cir.Gates)
	if sw := plan[at]; !sw.Pass || !slices.ContainsFunc(cir.Gates[sw.Start:sw.End], func(g quantum.Gate) bool { return g.Target == 5 }) {
		t.Fatalf("sweep %d of %v does not carry the rank target", at, plan)
	}
	faults := []codecFault{
		{dec: true, at: at},
		{enc: true, at: at},
		{dec: true, once: true, at: at},
		{enc: true, once: true, at: at},
	}
	for _, sweep := range []int{fanOut, at} {
		faults = append(faults,
			codecFault{get: true, at: sweep},
			codecFault{put: true, at: sweep},
			codecFault{get: true, once: true, at: sweep})
	}
	for _, k := range []int{1, 3} {
		for _, f := range faults {
			runWithFault(t, k, nil, cir, f)
		}
	}
	// The noisy row: the fault is armed where the trajectory's plan puts
	// sweep at, and the completed prefix is held to a noisy reference run
	// of that prefix.
	noisy := func(c *Config) { c.Noise = 0.5 }
	for _, k := range []int{1, 3} {
		if firedPaulis(t, 2, k, noisy, &quantum.Circuit{N: cir.N, Gates: cir.Gates[:4]}) == 0 {
			t.Fatalf("K=%d: no Pauli fired before the fault; the noisy row is vacuous", k)
		}
		runWithFault(t, k, noisy, cir, codecFault{enc: true, at: at})
	}
}

// hintStore wraps a rank's block store, asks for prefetch hints, and
// logs per hint the order it named and the Gets that followed it.
type hintStore struct {
	blockstore.Store
	passes []hintedPass
}

type hintedPass struct{ hint, gets []int }

func (h *hintStore) WantHints() bool { return true }

func (h *hintStore) PrefetchHint(order []int) {
	h.passes = append(h.passes, hintedPass{hint: slices.Clone(order)})
	h.Store.PrefetchHint(order)
}

func (h *hintStore) Get(b int) ([]byte, error) {
	p := &h.passes[len(h.passes)-1] // a Get before any hint is a pass that gave none
	p.gets = append(p.gets, b)
	return h.Store.Get(b)
}

// TestHintsNameWhatPassesRead: on one worker, the blocks a pass reads
// from a rank's store come in exactly the order its prefetch hint named —
// the group fan-out with the block cache on and off, the exchange at two
// ranks (whose crossing members a rank reads although no gate of its own
// half acts on them), a fork batch, the requantize passes of a budget,
// and a measurement's two scans.
func TestHintsNameWhatPassesRead(t *testing.T) {
	// On 7 qubits at 8-amplitude blocks, qubits 3..6 index the blocks;
	// after the measurement, block controls leave blocks no gate acts on.
	local := quantum.NewCircuit(7).X(3).H(4).CNOT(4, 5).CCZ(3, 4, 6).H(6).Measure(2).CNOT(3, 0).Toffoli(4, 5, 1)
	// On 6 qubits at 2 ranks, qubit 5 is the rank qubit: a sweep whose
	// rank-target gates are controlled on block qubit 4 and hold a
	// block-target gate controlled on the rank qubit, which acts on the
	// peer's half alone.
	exchange := quantum.NewCircuit(6).H(0).H(3).H(4).Measure(2).
		ApplyControlled("cry", quantum.RY(0.7), 5, 4).CNOT(5, 3).ApplyControlled("cry", quantum.RY(0.4), 5, 4)
	measured := quantum.NewCircuit(7).H(0).H(4).CNOT(4, 6).Measure(4).Measure(1)
	body := forkBody()
	forks := []*quantum.Circuit{body, partAt(body, 1, 1), partAt(body, len(body.Gates)-1, 2), body, partAt(body, 0, 4)}
	one := func(c *quantum.Circuit) []*quantum.Circuit { return []*quantum.Circuit{c} }
	for _, tc := range []struct {
		name                 string
		qubits, ranks, block int
		circuits             []*quantum.Circuit
		cfg                  func(*Config)
		ran                  func(Stats) bool // what the case exists for happened
	}{
		{"fan-out", 7, 1, 8, one(local), nil, nil},
		{"fan-out cached", 7, 1, 8, one(local), func(c *Config) { c.CacheLines = 4 },
			func(st Stats) bool { return st.CacheLookups > 0 }},
		{"exchange", 6, 2, 8, one(exchange), nil, nil},
		{"fork batch", 7, 1, 16, forks, nil, nil},
		{"requantize", 7, 1, 8, one(quantum.QFT(7, 2)), func(c *Config) { c.MemoryBudget = 1 },
			func(st Stats) bool { return st.Escalations > 0 }},
		{"measurement", 7, 1, 8, one(measured), nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sims := batchSims(t, tc.qubits, tc.ranks, tc.block, len(tc.circuits), func(c *Config) {
				c.Workers = 1
				if tc.cfg != nil {
					tc.cfg(c)
				}
			})
			var stores []*hintStore
			for _, s := range sims {
				for _, rs := range s.ranks {
					h := &hintStore{Store: rs.store}
					rs.store = h
					stores = append(stores, h)
				}
			}
			if err := RunBatch(sims, tc.circuits, RunControl{}); err != nil {
				t.Fatal(err)
			}
			if tc.ran != nil && !tc.ran(sims[0].Stats()) {
				t.Fatalf("the case is vacuous: %+v", sims[0].Stats())
			}
			for i, h := range stores {
				if len(h.passes) == 0 {
					t.Fatalf("store %d was never hinted", i)
				}
				for n, p := range h.passes {
					if !slices.Equal(p.gets, p.hint) {
						t.Fatalf("store %d, pass %d: read %v, the hint named %v", i, n, p.gets, p.hint)
					}
				}
			}
		})
	}
}

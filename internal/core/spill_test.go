package core

import (
	"bytes"
	"math/rand"
	"os"
	"testing"

	"qcsim/internal/quantum"
)

// Spill-tier tests: the tiered RAM→disk block store must be invisible
// to every observable — amplitudes, measurement logs, stats identities
// — while actually moving blocks through the spill file.

// spillCfg enables the tiered store with a RAM budget tight enough to
// force real evictions at the test geometries.
func spillCfg(t *testing.T, ram int64) func(*Config) {
	t.Helper()
	dir := t.TempDir()
	return func(c *Config) {
		c.SpillDir = dir
		c.SpillRAMBudget = ram
	}
}

// sumSpillWrites totals SpillWrites across ranks.
func sumSpillWrites(s *Simulator) int64 {
	var n int64
	for _, rs := range s.ranks {
		s.syncStoreStats(rs)
		n += rs.stats.SpillWrites
	}
	return n
}

// TestSpillBitIdentity: for every geometry × worker count, a run
// through the tiered store (RAM budget far below the compressed
// footprint) must be bit-identical to the in-RAM run — state,
// measurement log, and ledger.
func TestSpillBitIdentity(t *testing.T) {
	cir := quantum.RandomCircuit(8, 32, 5)
	cir.Measure(2)
	spilled := false
	for _, geo := range geometries {
		for _, workers := range []int{1, 3} {
			ref := newSim(t, 8, geo.ranks, geo.blockAmps, func(c *Config) {
				c.Workers = workers
			})
			sp := newSim(t, 8, geo.ranks, geo.blockAmps, func(c *Config) {
				c.Workers = workers
				spillCfg(t, 512)(c)
			})
			if err := ref.Run(cir); err != nil {
				t.Fatal(err)
			}
			if err := sp.Run(cir); err != nil {
				t.Fatal(err)
			}
			label := geo.name + "/spill"
			assertBitIdentical(t, ref, sp, label)
			if sumSpillWrites(sp) > 0 {
				spilled = true
			}
		}
	}
	if !spilled {
		t.Fatal("no geometry ever spilled; RAM budget too loose for the property to bite")
	}
}

// TestSpillSweepsBitIdentical: the sweep scheduler's single-pass
// execution must stay bit-identical to gate-at-a-time under the tiered
// store — the sweep planner's prefetch hints must not change results.
func TestSpillSweepsBitIdentical(t *testing.T) {
	cir := quantum.RandomCircuit(8, 40, 13)
	on, off := runSweepPair(t, cir, 2, 16, 2, spillCfg(t, 512))
	assertBitIdentical(t, on, off, "sweeps-on/spill vs sweeps-off/spill")
	if sumSpillWrites(on) == 0 && sumSpillWrites(off) == 0 {
		t.Fatal("neither sweep run spilled; property void")
	}
}

// spillCounters are the Stats counters only a restart may lower.
func spillCounters(st Stats) [4]int64 {
	return [4]int64{st.SpillWrites, st.SpillReads, st.PrefetchReads, st.PrefetchHits}
}

// accounting checks each rank's Stats against its store after a step
// and remembers the spill counters, which may only grow except at a
// restart (Reset, Clone, InstallRank), where they are zero.
type accounting struct {
	prev    map[*rankState][4]int64
	spilled bool // some step saw a spill write
}

func (a *accounting) check(t *testing.T, step string, s *Simulator, restart bool) {
	t.Helper()
	var total int64
	for ri, rs := range s.ranks {
		var sum int64
		for b := 0; b < s.blocksPerRank(); b++ {
			blob, err := rs.store.Peek(b)
			if err != nil {
				t.Fatalf("%s: rank %d block %d: %v", step, ri, b, err)
			}
			sum += int64(len(blob))
		}
		if fp := rs.store.Footprint(); fp != sum {
			t.Fatalf("%s: rank %d store footprint %d, Σ len(blob) %d", step, ri, fp, sum)
		}
		// The step itself must leave the gauges and their marks sampled.
		st := rs.stats
		if st.CurrentFootprint != sum {
			t.Fatalf("%s: rank %d stats footprint %d, Σ len(blob) %d", step, ri, st.CurrentFootprint, sum)
		}
		if st.MaxFootprint < st.CurrentFootprint || st.MaxResident < st.ResidentFootprint {
			t.Fatalf("%s: rank %d marks below their gauges: footprint %d of max %d, resident %d of max %d",
				step, ri, st.CurrentFootprint, st.MaxFootprint, st.ResidentFootprint, st.MaxResident)
		}
		s.syncStoreStats(rs)
		if got, want := rs.stats.SpilledBytes, rs.store.Stats().SpilledBytes; got != want {
			t.Fatalf("%s: rank %d SpilledBytes %d, store gauge %d", step, ri, got, want)
		}
		now, prev := spillCounters(rs.stats), a.prev[rs]
		for i := range now {
			if restart && now[i] != 0 || !restart && now[i] < prev[i] {
				t.Fatalf("%s: rank %d spill counters %v after %v (restart %v)", step, ri, now, prev, restart)
			}
		}
		a.prev[rs] = now
		a.spilled = a.spilled || now[0] > 0
		total += sum
	}
	if got := s.Stats().CurrentFootprint; got != total {
		t.Fatalf("%s: aggregate footprint %d, Σ ranks %d", step, got, total)
	}
}

// TestSpillFootprintAccounting is the store-accounting property: after
// every step of an arbitrary sequence of runs, measurements, save+load,
// resets, basis states, clones and in-process worker round trips
// (ExportRankBlocks → InstallRank → Run → ExportDelta → ApplyDeltas),
// each rank's Stats.CurrentFootprint equals the store's Footprint()
// equals Σ len(blob) over its blocks, the high-water marks sit at or
// above their gauges, SpilledBytes is the store's gauge, and the spill
// counters only grow, but for the restarts — for both store
// implementations.
func TestSpillFootprintAccounting(t *testing.T) {
	stores := []struct {
		name  string
		extra func(*Config)
	}{
		{"ram", nil},
		{"tiered", spillCfg(t, 512)},
	}
	for _, st := range stores {
		t.Run(st.name, func(t *testing.T) {
			s := newSim(t, 8, 2, 16, func(c *Config) {
				c.Workers = 2
				if st.extra != nil {
					st.extra(c)
				}
			})
			rng := rand.New(rand.NewSource(77))
			var ckpt bytes.Buffer
			if err := s.Save(&ckpt); err != nil {
				t.Fatal(err)
			}
			acct := accounting{prev: map[*rankState][4]int64{}}
			acct.check(t, "init", s, true)
			for i := 0; i < 28; i++ {
				op := rng.Intn(7)
				if i < 7 {
					op = i // every step at least once
				}
				switch op {
				case 0:
					if err := s.Run(quantum.RandomCircuit(8, 6, rng.Int63())); err != nil {
						t.Fatal(err)
					}
					acct.check(t, "run", s, false)
				case 1:
					if err := s.Run(quantum.NewCircuit(8).H(rng.Intn(8)).Measure(rng.Intn(8))); err != nil {
						t.Fatal(err)
					}
					acct.check(t, "measure", s, false)
				case 2:
					if err := s.Load(bytes.NewReader(ckpt.Bytes())); err != nil {
						t.Fatal(err)
					}
					acct.check(t, "load", s, false)
				case 3:
					if err := s.Reset(); err != nil {
						t.Fatal(err)
					}
					acct.check(t, "reset", s, true)
				case 4:
					// A Reset, then two blocks rewritten: counters restart
					// at the Reset and grow from there.
					if err := s.SetBasisState(uint64(rng.Intn(256))); err != nil {
						t.Fatal(err)
					}
					clear(acct.prev)
					acct.check(t, "basis", s, false)
				case 5:
					clone, err := s.Clone(rng.Int63())
					if err != nil {
						t.Fatal(err)
					}
					acct.check(t, "clone", clone, true)
					clone.Close()
				case 6:
					deltas := workerDeltas(t, s, quantum.RandomCircuit(8, 6, rng.Int63()), func(step string, w *Simulator) {
						acct.check(t, step, w, step == "install")
					})
					if err := s.ApplyDeltas(deltas); err != nil {
						t.Fatal(err)
					}
					acct.check(t, "apply", s, false)
				}
			}
			if st.extra != nil && !acct.spilled {
				t.Fatal("the tiered store never spilled; the counter checks are void")
			}
		})
	}
}

// TestSpillCheckpointRoundTrip: a partially spilled state must
// checkpoint and restore bit-identically — into another spill-enabled
// simulator and into a plain in-RAM one.
func TestSpillCheckpointRoundTrip(t *testing.T) {
	cir := quantum.RandomCircuit(8, 32, 3)
	src := newSim(t, 8, 2, 16, func(c *Config) { spillCfg(t, 512)(c) })
	if err := src.Run(cir); err != nil {
		t.Fatal(err)
	}
	if sumSpillWrites(src) == 0 {
		t.Fatal("source never spilled; round-trip property void")
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []struct {
		name  string
		extra func(*Config)
	}{
		{"into-ram", nil},
		{"into-spill", spillCfg(t, 512)},
	} {
		d := newSim(t, 8, 2, 16, dst.extra)
		if err := d.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: %v", dst.name, err)
		}
		assertBitIdentical(t, src, d, dst.name)
	}
}

// TestSpillLoadClearsOverBudgetLatch: the over-budget latch presses on
// resident bytes, so a checkpoint saved by a simulator stuck at the
// loosest bound over budget restores cleanly into a spill-enabled
// simulator that keeps the resident set under the same budget.
func TestSpillLoadClearsOverBudgetLatch(t *testing.T) {
	mk := func(extra func(*Config)) *Simulator {
		return newSim(t, 8, 1, 16, func(c *Config) {
			c.MemoryBudget = 600
			c.ErrorLevels = []float64{1e-7}
			if extra != nil {
				extra(c)
			}
		})
	}
	src := mk(nil)
	if err := src.Run(quantum.RandomCircuit(8, 24, 9)); err != nil {
		t.Fatal(err)
	}
	if !src.OverBudget() {
		t.Fatalf("control stayed under budget (footprint %d); latch scenario void", src.CompressedFootprint())
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst := mk(spillCfg(t, 512))
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.OverBudget() {
		t.Fatal("latch survived a load whose resident set fits the budget")
	}
	// And a round-trip back into an unspilled simulator re-derives it.
	back := mk(nil)
	if err := back.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !back.OverBudget() {
		t.Fatal("latch not re-derived loading an over-budget state into an in-RAM store")
	}
}

// TestSpillCompletesUnderBudget is the headline §3.7 property: a state
// whose compressed footprint exceeds the memory budget completes at
// level 0 by spilling — the control without spill escalates to the
// loosest bound and still ends over budget.
func TestSpillCompletesUnderBudget(t *testing.T) {
	cir := quantum.RandomCircuit(10, 40, 21)
	// Measure the lossless footprint and the largest single blob, then
	// pick a budget between them: big enough that the resident set
	// (ram budget + one in-flight blob) fits, small enough that the
	// whole state cannot.
	dry := newSim(t, 10, 1, 64, nil)
	if err := dry.Run(cir); err != nil {
		t.Fatal(err)
	}
	var footprint, maxBlob int64
	for b := 0; b < dry.blocksPerRank(); b++ {
		blob, err := dry.ranks[0].store.Peek(b)
		if err != nil {
			t.Fatal(err)
		}
		footprint += int64(len(blob))
		if int64(len(blob)) > maxBlob {
			maxBlob = int64(len(blob))
		}
	}
	budget := 2 * maxBlob
	if budget >= footprint/2 {
		t.Fatalf("geometry too coarse to spill meaningfully: max blob %d, footprint %d", maxBlob, footprint)
	}
	// Control: near-lossless ladder, no spill — must end over budget.
	ctl := newSim(t, 10, 1, 64, func(c *Config) {
		c.MemoryBudget = budget
		c.ErrorLevels = []float64{1e-7}
	})
	if err := ctl.Run(cir); err != nil {
		t.Fatal(err)
	}
	if !ctl.OverBudget() {
		t.Fatalf("control fit in %d bytes; budget not tight enough", budget)
	}
	// Spill run: same budget, tiered store — completes lossless.
	dir := t.TempDir()
	sp := newSim(t, 10, 1, 64, func(c *Config) {
		c.MemoryBudget = budget
		c.ErrorLevels = []float64{1e-7}
		c.SpillDir = dir
		c.SpillRAMBudget = budget
	})
	if err := sp.Run(cir); err != nil {
		t.Fatal(err)
	}
	if sp.OverBudget() {
		t.Fatal("spill run still over budget")
	}
	st := sp.Stats()
	if st.FinalLevel != 0 || st.Escalations != 0 {
		t.Fatalf("spill run escalated (level %d, %d escalations); want lossless completion", st.FinalLevel, st.Escalations)
	}
	if st.SpillWrites == 0 || st.SpilledBytes == 0 {
		t.Fatalf("spill run never wrote to disk (writes %d, spilled %d)", st.SpillWrites, st.SpilledBytes)
	}
	if st.MaxResident > budget+maxBlob {
		t.Fatalf("resident high-water %d exceeds budget %d + max blob %d", st.MaxResident, budget, maxBlob)
	}
	if st.MaxFootprint <= budget {
		t.Fatalf("max footprint %d never exceeded the budget %d; out-of-core property void", st.MaxFootprint, budget)
	}
	// Bit-identical to the unbudgeted dry run.
	assertBitIdentical(t, dry, sp, "spill vs unbudgeted")
	// Close removes the spill files.
	if err := sp.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not empty after Close: %v", ents)
	}
}

// TestSpillConfigValidation: the config normalization rules around
// WithSpill's two knobs.
func TestSpillConfigValidation(t *testing.T) {
	if _, err := New(Config{Qubits: 4, Ranks: 1, BlockAmps: 4, SpillRAMBudget: -1}); err == nil {
		t.Fatal("negative spill RAM budget accepted")
	}
	if _, err := New(Config{Qubits: 4, Ranks: 1, BlockAmps: 4, SpillDir: t.TempDir()}); err == nil {
		t.Fatal("spill dir without any budget accepted")
	}
	// Dir without explicit RAM budget adopts MemoryBudget.
	s, err := New(Config{Qubits: 4, Ranks: 1, BlockAmps: 4,
		SpillDir: t.TempDir(), MemoryBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Budget without dir lands in os.TempDir.
	s, err = New(Config{Qubits: 4, Ranks: 1, BlockAmps: 4, SpillRAMBudget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// An unusable dir surfaces blockstore.ErrSpill from New.
	if _, err := New(Config{Qubits: 4, Ranks: 1, BlockAmps: 4,
		SpillDir: "/nonexistent/qcsim-spill", SpillRAMBudget: 1 << 20}); err == nil {
		t.Fatal("unwritable spill dir accepted")
	}
}

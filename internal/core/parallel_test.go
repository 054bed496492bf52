package core

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"qcsim/internal/quantum"
)

// The worker pool's contract: amplitudes, measurement outcomes, and the
// fidelity ledger are bit-identical for every worker count. These tests
// are the ones `go test -race` leans on — Workers > 1 forces the
// fan-out paths even on a single-CPU machine.

// runWorkload executes a measurement-heavy lossy workload at the given
// worker count and returns the simulator for inspection.
func runWorkload(t *testing.T, workers int, budget int64, cache int) *Simulator {
	t.Helper()
	s := newSim(t, 8, 2, 16, func(c *Config) {
		c.Workers = workers
		c.MemoryBudget = budget
		c.CacheLines = cache
		c.Noise = 0.05
	})
	c := quantum.RandomCircuit(8, 80, 21)
	c.Measure(2)
	c.Measure(6)
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestWorkersBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64
		cache  int
	}{
		{"lossless", 0, 0},
		{"lossless-cache", 0, 64},
		{"lossy", 2048, 0},
		{"lossy-cache", 2048, 64},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			s1 := runWorkload(t, 1, tc.budget, tc.cache)
			s4 := runWorkload(t, 4, tc.budget, tc.cache)
			a1, err := s1.FullState()
			if err != nil {
				t.Fatal(err)
			}
			a4, err := s4.FullState()
			if err != nil {
				t.Fatal(err)
			}
			for i := range a1 {
				if a1[i] != a4[i] {
					t.Fatalf("amplitude %d differs across worker counts: %v vs %v", i, a1[i], a4[i])
				}
			}
			m1, m4 := s1.Measurements(), s4.Measurements()
			if len(m1) != len(m4) {
				t.Fatalf("measurement counts differ: %v vs %v", m1, m4)
			}
			for i := range m1 {
				if m1[i] != m4[i] {
					t.Fatalf("measurement %d differs: %v vs %v", i, m1, m4)
				}
			}
			if l1, l4 := s1.FidelityLowerBound(), s4.FidelityLowerBound(); l1 != l4 {
				t.Fatalf("ledger differs across worker counts: %v vs %v", l1, l4)
			}
			if e1, e4 := s1.Stats().Escalations, s4.Stats().Escalations; e1 != e4 {
				t.Fatalf("escalation counts differ: %d vs %d", e1, e4)
			}
		})
	}
}

// TestQuickWorkersDeterministic is the property-test form: ANY circuit,
// ANY geometry, ANY worker count in 1..8 — same bits out.
func TestQuickWorkersDeterministic(t *testing.T) {
	f := func(seed int64, geomSel, workerSel, gateCount uint8) bool {
		qubits := 7
		geoms := []struct{ ranks, block int }{
			{1, 128}, {1, 16}, {2, 16}, {4, 8}, {2, 64},
		}
		g := geoms[int(geomSel)%len(geoms)]
		workers := 2 + int(workerSel)%7
		gates := 20 + int(gateCount)%60
		cir := quantum.RandomCircuit(qubits, gates, seed)
		cir.Measure(int(uint64(seed) % uint64(qubits)))
		run := func(w int) *Simulator {
			s, err := New(Config{Qubits: qubits, Ranks: g.ranks, BlockAmps: g.block, Seed: 9, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Run(cir); err != nil {
				t.Fatal(err)
			}
			return s
		}
		s1, sN := run(1), run(workers)
		a1, err := s1.FullState()
		if err != nil {
			t.Fatal(err)
		}
		aN, err := sN.FullState()
		if err != nil {
			t.Fatal(err)
		}
		for i := range a1 {
			if a1[i] != aN[i] {
				t.Logf("seed %d geom %+v workers %d: amplitude %d differs", seed, g, workers, i)
				return false
			}
		}
		o1, oN := s1.Measurements(), sN.Measurements()
		if len(o1) != len(oN) || o1[0] != oN[0] {
			t.Logf("seed %d: measurements differ: %v vs %v", seed, o1, oN)
			return false
		}
		if err := sameMasses(s1, sN); err != nil {
			t.Logf("seed %d geom %+v workers %d: %v", seed, g, workers, err)
			return false
		}
		return s1.FidelityLowerBound() == sN.FidelityLowerBound()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// sameMasses reports where Norm, ProbabilityOne of some qubit, the
// joint distribution of some pair or a diagonal observable over every
// qubit and pair differs between a and b in any bit. The reads fan out
// over the worker pool and fold their per-block values in global block
// order, so on the same amplitudes they give the same bits at every
// worker and rank count.
func sameMasses(a, b *Simulator) error {
	na, err := a.Norm()
	if err != nil {
		return err
	}
	nb, err := b.Norm()
	if err != nil {
		return err
	}
	if math.Float64bits(na) != math.Float64bits(nb) {
		return fmt.Errorf("Norm %v vs %v", na, nb)
	}
	var zs []quantum.ZTerm
	var zzs []quantum.ZZTerm
	for q := range a.Qubits() {
		zs = append(zs, quantum.ZTerm{Q: q, W: 1 / float64(q+3)})
		for r := q + 1; r < a.Qubits(); r++ {
			zzs = append(zzs, quantum.ZZTerm{A: q, B: r, W: -0.5})
		}
	}
	ea, err := a.DiagonalExpectation(zs, zzs)
	if err != nil {
		return err
	}
	eb, err := b.DiagonalExpectation(zs, zzs)
	if err != nil {
		return err
	}
	if math.Float64bits(ea) != math.Float64bits(eb) {
		return fmt.Errorf("DiagonalExpectation %v vs %v", ea, eb)
	}
	for q := range a.Qubits() {
		pa, err := a.ProbabilityOne(q)
		if err != nil {
			return err
		}
		pb, err := b.ProbabilityOne(q)
		if err != nil {
			return err
		}
		if math.Float64bits(pa) != math.Float64bits(pb) {
			return fmt.Errorf("ProbabilityOne(%d) %v vs %v", q, pa, pb)
		}
		for r := q + 1; r < a.Qubits(); r++ {
			ja, err := a.jointDistribution(q, r)
			if err != nil {
				return err
			}
			jb, err := b.jointDistribution(q, r)
			if err != nil {
				return err
			}
			for i := range ja {
				if math.Float64bits(ja[i]) != math.Float64bits(jb[i]) {
					return fmt.Errorf("jointDistribution(%d, %d) %v vs %v", q, r, ja, jb)
				}
			}
		}
	}
	return nil
}

// TestWorkersMoreThanBlocks: the pool is clamped to the block count, so
// oversubscription is legal and still exact.
func TestWorkersMoreThanBlocks(t *testing.T) {
	s := newSim(t, 6, 1, 16, func(c *Config) { c.Workers = 32 }) // 4 blocks, 32 workers
	compareToReference(t, s, quantum.RandomCircuit(6, 60, 31), 1e-12)
}

// TestWorkerStatsAccounting: the shard merge must preserve the Table 2
// accounting when the block loop runs parallel.
func TestWorkerStatsAccounting(t *testing.T) {
	s := newSim(t, 8, 1, 16, func(c *Config) { c.Workers = 4 })
	if err := s.Run(quantum.RandomCircuit(8, 60, 41)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CompressTime == 0 || st.DecompressTime == 0 || st.ComputeTime == 0 {
		t.Fatalf("worker time shards not merged into rank stats: %+v", st)
	}
	for _, rs := range s.ranks {
		for _, w := range rs.workers {
			if w.stats != (Stats{}) {
				t.Fatalf("worker shard not drained after fan-out: %+v", w.stats)
			}
		}
	}
}

// TestWorkerErrorPropagates: a codec failure inside a worker goroutine
// must surface as an error from Run, not a hang or a crash.
func TestWorkerErrorPropagates(t *testing.T) {
	s := newSim(t, 8, 1, 16, func(c *Config) {
		c.Workers = 4
		c.MemoryBudget = 1
		c.Lossy = failingCodec{}
	})
	if err := s.Run(quantum.QFT(8, 2)); err == nil {
		t.Fatal("run succeeded with failing lossy codec under budget pressure")
	}
}

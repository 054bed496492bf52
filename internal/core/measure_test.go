package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"qcsim/internal/quantum"
)

func TestIntermediateMeasurementGHZ(t *testing.T) {
	// Measuring one GHZ qubit collapses all of them — across every
	// geometry so the measured qubit lands in each index segment.
	for _, g := range geometries {
		g := g
		t.Run(g.name, func(t *testing.T) {
			for trial := 0; trial < 6; trial++ {
				s := newSim(t, 8, g.ranks, g.blockAmps, func(c *Config) { c.Seed = int64(trial) })
				c := quantum.GHZ(8)
				c.Measure(3)
				if err := s.Run(c); err != nil {
					t.Fatal(err)
				}
				outs := s.Measurements()
				if len(outs) != 1 {
					t.Fatalf("measurements = %v", outs)
				}
				for q := 0; q < 8; q++ {
					p, err := s.ProbabilityOne(q)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(p-float64(outs[0])) > 1e-9 {
						t.Fatalf("trial %d: qubit %d P(1)=%v after outcome %d", trial, q, p, outs[0])
					}
				}
				n, _ := s.Norm()
				if math.Abs(n-1) > 1e-9 {
					t.Fatalf("norm after collapse = %v", n)
				}
			}
		})
	}
}

func TestMeasurementQubitInEverySegment(t *testing.T) {
	// 8 qubits, 4 ranks, 16-amp blocks: offset bits 0-3, block bits
	// 4-5, rank bits 6-7. Measure one qubit from each segment.
	for _, q := range []int{1, 4, 7} {
		q := q
		t.Run(map[int]string{1: "offset", 4: "block", 7: "rank"}[q], func(t *testing.T) {
			s := newSim(t, 8, 4, 16, nil)
			c := quantum.NewCircuit(8)
			c.X(q) // deterministic |1⟩
			c.Measure(q)
			if err := s.Run(c); err != nil {
				t.Fatal(err)
			}
			if outs := s.Measurements(); len(outs) != 1 || outs[0] != 1 {
				t.Fatalf("measured %v, want [1]", outs)
			}
		})
	}
}

func TestMeasurementStatisticsCompressed(t *testing.T) {
	ones := 0
	const trials = 300
	for i := 0; i < trials; i++ {
		s := newSim(t, 4, 2, 4, func(c *Config) { c.Seed = int64(i * 7) })
		c := quantum.NewCircuit(4).H(0)
		c.Measure(0)
		if err := s.Run(c); err != nil {
			t.Fatal(err)
		}
		ones += s.Measurements()[0]
	}
	frac := float64(ones) / trials
	if math.Abs(frac-0.5) > 0.1 {
		t.Fatalf("H|0⟩ measured 1 with frequency %v over %d trials", frac, trials)
	}
}

func TestMeasurementDeterministicBySeed(t *testing.T) {
	run := func() []int {
		s := newSim(t, 6, 2, 8, func(c *Config) { c.Seed = 99 })
		c := quantum.NewCircuit(6)
		for q := 0; q < 6; q++ {
			c.H(q)
		}
		for q := 0; q < 6; q++ {
			c.Measure(q)
		}
		if err := s.Run(c); err != nil {
			t.Fatal(err)
		}
		return s.Measurements()
	}
	a, b := run(), run()
	if len(a) != 6 || len(b) != 6 {
		t.Fatalf("outcome counts: %v %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic measurement %d: %v vs %v", i, a, b)
		}
	}
}

func TestMeasureThenContinue(t *testing.T) {
	// Measurement mid-circuit, then more gates (teleportation-style
	// classical feed-forward is the motivating pattern).
	s := newSim(t, 4, 2, 4, func(c *Config) { c.Seed = 5 })
	c := quantum.NewCircuit(4)
	c.H(0).CNOT(0, 1)
	c.Measure(0)
	c.CNOT(1, 2) // spread the collapsed bit
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	out := s.Measurements()[0]
	for _, q := range []int{1, 2} {
		p, _ := s.ProbabilityOne(q)
		if math.Abs(p-float64(out)) > 1e-9 {
			t.Fatalf("qubit %d P(1)=%v after outcome %d", q, p, out)
		}
	}
}

func TestProbabilityOneMatchesReference(t *testing.T) {
	cir := quantum.RandomCircuit(8, 100, 23)
	s := newSim(t, 8, 4, 16, nil)
	if err := s.Run(cir); err != nil {
		t.Fatal(err)
	}
	ref := quantum.NewState(8)
	ref.ApplyCircuit(cir)
	for q := 0; q < 8; q++ {
		got, err := s.ProbabilityOne(q)
		if err != nil {
			t.Fatal(err)
		}
		want := ref.ProbabilityOne(q)
		if math.Abs(got-want) > 1e-10 {
			t.Fatalf("P(q%d=1) = %v, want %v", q, got, want)
		}
	}
	if _, err := s.ProbabilityOne(8); err == nil {
		t.Fatal("out-of-range qubit accepted")
	}
}

func TestNoiseModelTrajectoriesConsistent(t *testing.T) {
	// With noise on, the state must remain a valid pure state (norm 1)
	// and be deterministic for a fixed seed even across ranks.
	run := func(ranks int) []complex128 {
		s := newSim(t, 6, ranks, 8, func(c *Config) { c.Seed, c.Noise = 31, 0.3 })
		if err := s.Run(quantum.GHZ(6)); err != nil {
			t.Fatal(err)
		}
		n, _ := s.Norm()
		if math.Abs(n-1) > 1e-9 {
			t.Fatalf("noisy norm = %v", n)
		}
		amps, _ := s.FullState()
		return amps
	}
	a := run(1)
	b := run(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("noise trajectory diverges across rank counts at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestNoiseChangesState(t *testing.T) {
	clean := newSim(t, 6, 1, 8, func(c *Config) { c.Seed = 32 })
	if err := clean.Run(quantum.GHZ(6)); err != nil {
		t.Fatal(err)
	}
	noisy := newSim(t, 6, 1, 8, func(c *Config) { c.Seed, c.Noise = 32, 0.5 })
	if err := noisy.Run(quantum.GHZ(6)); err != nil {
		t.Fatal(err)
	}
	a, _ := clean.FullState()
	b, _ := noisy.FullState()
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("50% depolarizing noise left the state untouched")
	}
}

func TestNoiseValidation(t *testing.T) {
	if _, err := New(Config{Qubits: 4, Ranks: 1, BlockAmps: 4, Noise: 1.5}); err == nil {
		t.Fatal("probability > 1 accepted")
	}
	s, err := New(Config{Qubits: 4, Ranks: 1, BlockAmps: 4, Noise: 0})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}

func TestAssertions(t *testing.T) {
	s := newSim(t, 4, 2, 4, nil)
	c := quantum.NewCircuit(4)
	c.X(0)            // q0 classical |1⟩
	c.H(1)            // q1 superposition
	c.H(2).CNOT(2, 3) // q2,q3 entangled
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	if err := s.AssertClassical(0, 1, 1e-9); err != nil {
		t.Errorf("classical assertion: %v", err)
	}
	if err := s.AssertClassical(0, 0, 1e-9); err == nil {
		t.Error("wrong classical value accepted")
	}
	if err := s.AssertSuperposition(1, 1e-9); err != nil {
		t.Errorf("superposition assertion: %v", err)
	}
	if err := s.AssertSuperposition(0, 0.1); err == nil {
		t.Error("classical qubit accepted as superposition")
	}
	if err := s.AssertProduct(0, 1, 1e-6); err != nil {
		t.Errorf("product assertion on unentangled pair: %v", err)
	}
	if err := s.AssertProduct(2, 3, 0.1); err == nil {
		t.Error("bell pair accepted as product state")
	}
	if err := s.AssertProduct(1, 1, 0.1); err == nil {
		t.Error("duplicate qubit accepted")
	}
}

// TestJointDistributionMatchesFullState: every ordered pair — both
// qubits in the offset segment, one or neither, the rank bit included —
// reads the joint distribution a sum over the full state gives. Each
// qubit is rotated by its own angle and a few pairs are entangled across
// the segments, so no two entries of a pair's distribution coincide.
func TestJointDistributionMatchesFullState(t *testing.T) {
	const n = 8 // 8-amplitude blocks: qubits 0..2 offsets, 3..6 blocks, 7 the rank
	s := newSim(t, n, 2, 8, nil)
	c := quantum.NewCircuit(n)
	for q := range n {
		c.RY(q, 0.3+float64(0.25*float64(q)))
	}
	if err := s.Run(c.CNOT(7, 1).CNOT(2, 5).CNOT(0, 4)); err != nil {
		t.Fatal(err)
	}
	amps, err := s.FullState()
	if err != nil {
		t.Fatal(err)
	}
	for a := range n {
		for b := range n {
			if a == b {
				continue
			}
			var want [4]float64
			for i, z := range amps {
				want[(i>>a&1)<<1|i>>b&1] += float64(real(z)*real(z)) + float64(imag(z)*imag(z))
			}
			got, err := s.jointDistribution(a, b)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want {
				if math.Abs(got[k]-want[k]) > 1e-12 {
					t.Fatalf("jointDistribution(%d, %d) = %v, want %v", a, b, got, want)
				}
			}
		}
	}
}

func TestSampleFromCompressedState(t *testing.T) {
	s := newSim(t, 4, 2, 4, nil)
	if err := s.Run(quantum.GHZ(4)); err != nil {
		t.Fatal(err)
	}
	rng := newTestRand(77)
	samples, err := s.Sample(rng, 500)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range samples {
		if v != 0 && v != 15 {
			t.Fatalf("GHZ sample %d impossible", v)
		}
	}
}

// newTestRand returns a deterministic rand source for sampling tests.
func newTestRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestCollapseIsACachedPass: a measurement's collapse is a pass of the
// group walk, so on a state whose blocks repeat the §3.4 cache answers
// every repeat. A uniform 10-qubit state on 2 ranks of 64 8-amplitude
// blocks, measured on an offset (1), a block (5) or a rank (9) qubit at
// one worker, recompresses at most four blocks — one per rank and side
// of the outcome — of the 128 it rewrites. The outcome, the state bits
// and every blob equal the cache-off and gate-at-a-time runs'.
func TestCollapseIsACachedPass(t *testing.T) {
	uniform := quantum.NewCircuit(10)
	for q := range 10 {
		uniform.H(q)
	}
	for _, q := range []int{1, 5, 9} {
		t.Run(map[int]string{1: "offset", 5: "block", 9: "rank"}[q], func(t *testing.T) {
			run := func(mut func(*Config)) (*Simulator, int64) {
				s := newSim(t, 10, 2, 8, func(c *Config) {
					c.Workers, c.Seed = 1, int64(q)
					mut(c)
				})
				if err := s.Run(uniform); err != nil {
					t.Fatal(err)
				}
				before := s.Stats().CompressCalls
				if err := s.Run(quantum.NewCircuit(10).Measure(q)); err != nil {
					t.Fatal(err)
				}
				return s, s.Stats().CompressCalls - before
			}
			cached, calls := run(func(c *Config) { c.CacheLines = 64 })
			if calls > 4 {
				t.Fatalf("the collapse made %d compress calls, want at most 4", calls)
			}
			for name, mut := range map[string]func(*Config){
				"cache-off":      func(c *Config) {},
				"gate-at-a-time": func(c *Config) { c.CacheLines, c.DisableSweeps = 64, true },
			} {
				other, _ := run(mut)
				assertBitIdentical(t, cached, other, name)
				assertBlobsIdentical(t, cached, other, name)
			}
		})
	}
}

// TestCollapsedBlocksAreResetsZero: the half a collapse drops is written
// exact +0, not 0·x, so after a block-qubit measurement every block on
// the other side of the outcome is byte for byte the zero blob Reset
// installs — as compressible as a block that never held amplitude.
func TestCollapsedBlocksAreResetsZero(t *testing.T) {
	const q = 5 // 8 qubits, 2 ranks, 16-amplitude blocks: block bits 4-6
	s := newSim(t, 8, 2, 16, func(c *Config) { c.CacheLines = 64 })
	zero, err := s.ranks[1].store.Peek(0) // Reset's all-zero block
	if err != nil {
		t.Fatal(err)
	}
	c := quantum.RandomCircuit(8, 30, 3)
	for q := range 8 {
		c.RY(q, 0.3+float64(0.1*float64(q))) // negative amplitudes, so 0·x would carry −0
	}
	c.Measure(q)
	if err := s.Run(c); err != nil {
		t.Fatal(err)
	}
	outcome, dropped := s.Measurements()[0], 0
	for _, rs := range s.ranks {
		for b := range s.blocksPerRank() {
			if b>>(q-s.offsetBits)&1 == outcome {
				continue
			}
			blob, err := rs.store.Peek(b)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, zero) {
				t.Fatalf("rank %d block %d: collapsed away, but its blob is not Reset's zero blob", rs.id, b)
			}
			dropped++
		}
	}
	if dropped != s.cfg.Ranks*s.blocksPerRank()/2 {
		t.Fatalf("checked %d dropped blocks, want half of them", dropped)
	}
}

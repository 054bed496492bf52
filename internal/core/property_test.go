package core

import (
	"bytes"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"qcsim/internal/quantum"
)

// TestQuickLosslessEqualsReference is the engine's master property: for
// ANY circuit and ANY legal (ranks, blockAmps) geometry, the lossless
// compressed engine and the dense reference produce identical states.
func TestQuickLosslessEqualsReference(t *testing.T) {
	f := func(seed int64, geomSel uint8, gateCount uint8) bool {
		qubits := 7
		geoms := []struct{ ranks, block int }{
			{1, 128}, {1, 16}, {2, 16}, {4, 8}, {8, 4}, {2, 64},
		}
		g := geoms[int(geomSel)%len(geoms)]
		gates := 20 + int(gateCount)%80
		cir := quantum.RandomCircuit(qubits, gates, seed)
		s, err := New(Config{Qubits: qubits, Ranks: g.ranks, BlockAmps: g.block, Seed: 1})
		if err != nil {
			t.Logf("config: %v", err)
			return false
		}
		if err := s.Run(cir); err != nil {
			t.Logf("run: %v", err)
			return false
		}
		ref := quantum.NewState(qubits)
		ref.ApplyCircuit(cir)
		got, err := s.FullState()
		if err != nil {
			t.Logf("state: %v", err)
			return false
		}
		for i := range got {
			if cmplx.Abs(got[i]-ref.Amps[i]) > 1e-11 {
				t.Logf("seed %d geom %+v: amp %d differs by %g", seed, g, i, cmplx.Abs(got[i]-ref.Amps[i]))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLossyRespectsLedger checks the fidelity contract under
// random budgets: measured fidelity ≥ ledger bound, state norm ≤ 1+ε.
func TestQuickLossyRespectsLedger(t *testing.T) {
	f := func(seed int64, budgetSel uint8) bool {
		qubits := 7
		budgets := []int64{256, 1024, 4096, 16384}
		cir := quantum.RandomCircuit(qubits, 60, seed)
		s, err := New(Config{
			Qubits: qubits, Ranks: 2, BlockAmps: 16,
			MemoryBudget: budgets[int(budgetSel)%len(budgets)], Seed: 2,
		})
		if err != nil {
			return false
		}
		if err := s.Run(cir); err != nil {
			t.Logf("run: %v", err)
			return false
		}
		ref := quantum.NewState(qubits)
		ref.ApplyCircuit(cir)
		got, err := s.FullState()
		if err != nil {
			return false
		}
		n, err := s.Norm()
		if err != nil || n <= 0 {
			return false
		}
		fid := quantum.FidelityVec(ref.Amps, got) / math.Sqrt(n)
		bound := s.FidelityLowerBound()
		if fid < bound-1e-9 {
			t.Logf("seed %d: fidelity %g below ledger %g", seed, fid, bound)
			return false
		}
		// The budget holds at rest: unless the ladder ran out, every
		// rank's resident bytes fit when Run returns.
		for _, rs := range s.ranks {
			if !rs.overBudget && rs.store.Resident() > s.cfg.MemoryBudget {
				t.Logf("seed %d: rank %d rests at %d B over the %d B budget", seed, rs.id, rs.store.Resident(), s.cfg.MemoryBudget)
				return false
			}
		}
		// Truncation only shrinks magnitudes, so the norm cannot grow.
		if n > 1+1e-9 {
			t.Logf("seed %d: norm %g above 1", seed, n)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCheckpointIdempotent: save/load at a random cut point never
// changes the final state.
func TestQuickCheckpointIdempotent(t *testing.T) {
	f := func(seed int64, cutSel uint8) bool {
		cir := quantum.RandomCircuit(6, 40, seed)
		cut := 1 + int(cutSel)%(len(cir.Gates)-1)
		mk := func() *Simulator {
			s, err := New(Config{Qubits: 6, Ranks: 2, BlockAmps: 8, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		s1 := mk()
		if err := s1.Run(&quantum.Circuit{N: 6, Gates: cir.Gates[:cut]}); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := s1.Save(&buf); err != nil {
			return false
		}
		s2 := mk()
		if err := s2.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Logf("load: %v", err)
			return false
		}
		if err := s2.Run(&quantum.Circuit{N: 6, Gates: cir.Gates[cut:]}); err != nil {
			return false
		}
		sFull := mk()
		if err := sFull.Run(cir); err != nil {
			return false
		}
		a, _ := s2.FullState()
		b, _ := sFull.FullState()
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestRandomizedMeasurementAgreesWithReferenceDistribution measures all
// qubits of random circuits and sanity-checks outcome frequencies
// against reference marginals.
func TestRandomizedMeasurementAgreesWithReferenceDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	cir := quantum.RandomCircuit(5, 30, 55)
	ref := quantum.NewState(5)
	ref.ApplyCircuit(cir)
	wantP1 := ref.ProbabilityOne(2)

	const trials = 200
	ones := 0
	for i := 0; i < trials; i++ {
		s, err := New(Config{Qubits: 5, Ranks: 2, BlockAmps: 4, Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		withMeasure := &quantum.Circuit{N: 5, Gates: append(append([]quantum.Gate(nil), cir.Gates...),
			quantum.Gate{Kind: quantum.KindMeasure, Name: "measure", Target: 2})}
		if err := s.Run(withMeasure); err != nil {
			t.Fatal(err)
		}
		ones += s.Measurements()[0]
	}
	got := float64(ones) / trials
	if math.Abs(got-wantP1) > 0.12 {
		t.Fatalf("P(q2=1) sampled %.3f, reference %.3f", got, wantP1)
	}
}

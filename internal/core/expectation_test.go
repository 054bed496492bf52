package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"qcsim/internal/quantum"
)

// expectZ is ⟨Z_q⟩ read as a one-term DiagonalExpectation.
func expectZ(s *Simulator, q int) (float64, error) {
	return s.DiagonalExpectation([]quantum.ZTerm{{Q: q, W: 1}}, nil)
}

// expectZZ is ⟨Z_a Z_b⟩ read as a one-term DiagonalExpectation.
func expectZZ(s *Simulator, a, b int) (float64, error) {
	return s.DiagonalExpectation(nil, []quantum.ZZTerm{{A: a, B: b, W: 1}})
}

// maxCutTerms is the MAXCUT objective Σ_edges (1 − Z_u Z_v)/2 as ZZ
// terms; the energy is their expectation plus len(edges)/2.
func maxCutTerms(edges []quantum.Edge) []quantum.ZZTerm {
	zzs := make([]quantum.ZZTerm, len(edges))
	for i, e := range edges {
		zzs[i] = quantum.ZZTerm{A: e.U, B: e.V, W: -0.5}
	}
	return zzs
}

func TestExpectationZBasis(t *testing.T) {
	s := newSim(t, 4, 2, 4, nil)
	if err := s.Run(quantum.NewCircuit(4).X(1)); err != nil {
		t.Fatal(err)
	}
	z0, _ := expectZ(s, 0)
	z1, _ := expectZ(s, 1)
	if math.Abs(z0-1) > 1e-12 || math.Abs(z1+1) > 1e-12 {
		t.Fatalf("⟨Z0⟩=%v ⟨Z1⟩=%v", z0, z1)
	}
	if _, err := expectZ(s, 9); err == nil {
		t.Fatal("out-of-range qubit accepted")
	}
}

func TestExpectationZSuperposition(t *testing.T) {
	s := newSim(t, 3, 1, 4, nil)
	if err := s.Run(quantum.NewCircuit(3).H(0)); err != nil {
		t.Fatal(err)
	}
	z, _ := expectZ(s, 0)
	if math.Abs(z) > 1e-12 {
		t.Fatalf("⟨Z⟩ of H|0⟩ = %v", z)
	}
}

func TestExpectationZZBellState(t *testing.T) {
	s := newSim(t, 4, 2, 4, nil)
	if err := s.Run(quantum.NewCircuit(4).H(0).CNOT(0, 1)); err != nil {
		t.Fatal(err)
	}
	zz, err := expectZZ(s, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(zz-1) > 1e-12 {
		t.Fatalf("⟨Z0Z1⟩ of Bell pair = %v, want 1 (perfect correlation)", zz)
	}
	// Anti-correlated pair: X on one side.
	s2 := newSim(t, 4, 2, 4, nil)
	if err := s2.Run(quantum.NewCircuit(4).H(0).CNOT(0, 1).X(1)); err != nil {
		t.Fatal(err)
	}
	zz2, _ := expectZZ(s2, 0, 1)
	if math.Abs(zz2+1) > 1e-12 {
		t.Fatalf("anti-correlated ⟨ZZ⟩ = %v", zz2)
	}
}

func TestMaxCutEnergyMatchesReference(t *testing.T) {
	// QAOA on a known graph: compare against the dense reference's
	// direct computation.
	n := 8
	edges := quantum.RandomRegularGraph(n, 4, 9)
	cir := quantum.QAOA(n, 2, 9)
	s := newSim(t, n, 2, 16, nil)
	if err := s.Run(cir); err != nil {
		t.Fatal(err)
	}
	e, err := s.DiagonalExpectation(nil, maxCutTerms(edges))
	if err != nil {
		t.Fatal(err)
	}
	got := e + float64(len(edges))/2
	// Direct: Σ_z P(z)·cut(z).
	ref := quantum.NewState(n)
	ref.ApplyCircuit(cir)
	var want float64
	for z := range ref.Amps {
		p := ref.Probability(uint64(z))
		cut := 0
		for _, e := range edges {
			if (z>>uint(e.U))&1 != (z>>uint(e.V))&1 {
				cut++
			}
		}
		want += p * float64(cut)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("MAXCUT energy = %v, reference %v", got, want)
	}
	if _, err := s.DiagonalExpectation(nil, maxCutTerms([]quantum.Edge{{U: 1, V: 1}})); err == nil {
		t.Fatal("self loop accepted")
	}
}

// perAmplitudeExpectation is DiagonalExpectation as it stood before the
// block table: the weight Σ±W re-derived for every amplitude, a branch
// per term. It defines the bits DiagonalExpectations must reproduce.
func perAmplitudeExpectation(s *Simulator, zs []quantum.ZTerm, zzs []quantum.ZZTerm) (float64, error) {
	var acc float64
	scratch := make([]float64, 2*s.blockAmps())
	for r, rs := range s.ranks {
		for blk := 0; blk < s.blocksPerRank(); blk++ {
			blob, err := rs.store.Peek(blk)
			if err != nil {
				return 0, err
			}
			if err := s.decodeBlob(blob, scratch); err != nil {
				return 0, err
			}
			base := s.compose(r, blk, 0)
			for o := 0; o < s.blockAmps(); o++ {
				re, im := scratch[2*o], scratch[2*o+1]
				p := re*re + im*im
				if p == 0 {
					continue
				}
				idx := base + uint64(o)
				var w float64
				for _, t := range zs {
					if idx>>uint(t.Q)&1 == 0 {
						w += t.W
					} else {
						w -= t.W
					}
				}
				for _, t := range zzs {
					if (idx>>uint(t.A)^idx>>uint(t.B))&1 == 0 {
						w += t.W
					} else {
						w -= t.W
					}
				}
				acc += p * w
			}
		}
	}
	return acc, nil
}

// TestDiagonalExpectationsMatchPerAmplitudeLoop pins the readout's bits:
// tabulating Σ±W term-major per block, and running K variants' sums on a
// worker pool, must give every variant the float64 the per-amplitude
// loop gives it alone.
func TestDiagonalExpectationsMatchPerAmplitudeLoop(t *testing.T) {
	const qubits = 7
	// Qubits 0–2 are offset bits in every geometry below, 4 a block bit,
	// 6 the rank bit on two ranks.
	zs := []quantum.ZTerm{{Q: 0, W: 0.75}, {Q: 4, W: -1.25}, {Q: 6, W: 0.3}, {Q: 0, W: 0.75}}
	zzs := []quantum.ZZTerm{{A: 0, B: 1, W: -0.5}, {A: 1, B: 5, W: 0.7}, {A: 4, B: 6, W: -0.5}, {A: 6, B: 2, W: 1.0 / 3}, {A: 0, B: 1, W: -0.5}, {A: 3, B: 5, W: 1e-3}}
	states := map[string]struct {
		cfg     func(*Config)
		circuit func(v int) *quantum.Circuit
	}{
		"dense":  {circuit: func(v int) *quantum.Circuit { return quantum.RandomCircuit(qubits, 20, int64(7+v)) }},
		"lossy":  {cfg: func(c *Config) { c.MemoryBudget = 256 }, circuit: func(v int) *quantum.Circuit { return quantum.QFT(qubits, int64(5+v)) }},
		"sparse": {circuit: func(int) *quantum.Circuit { return quantum.GHZ(qubits) }},
	}
	for name, st := range states {
		for _, g := range []struct{ ranks, block, k, workers int }{
			{1, 8, 1, 1}, {1, 8, 3, 3}, {2, 8, 3, 1}, {2, 16, 1, 3}, {2, 16, 3, 3},
		} {
			label := fmt.Sprintf("%s %+v", name, g)
			sims := make([]*Simulator, g.k)
			for v := range sims {
				sims[v] = newSim(t, qubits, g.ranks, g.block, func(c *Config) {
					c.Workers = g.workers
					if st.cfg != nil {
						st.cfg(c)
					}
				})
				if err := sims[v].Run(st.circuit(v)); err != nil {
					t.Fatal(err)
				}
				if name == "lossy" && sims[v].Stats().FinalLevel < 1 {
					t.Fatalf("%s: the budget never escalated; the state is not lossy", label)
				}
			}
			got, err := DiagonalExpectations(sims, zs, zzs)
			if err != nil {
				t.Fatal(err)
			}
			for v, s := range sims {
				want, err := perAmplitudeExpectation(s, zs, zzs)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got[v]) != math.Float64bits(want) {
					t.Fatalf("%s: variant %d energy %v, the per-amplitude loop gives %v", label, v, got[v], want)
				}
				solo, err := s.DiagonalExpectation(zs, zzs)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(solo) != math.Float64bits(want) {
					t.Fatalf("%s: variant %d solo method %v, the per-amplitude loop gives %v", label, v, solo, want)
				}
			}
		}
	}
	s := newSim(t, 4, 1, 4, nil)
	if _, err := expectZ(s, 4); err == nil {
		t.Fatal("out-of-range Z term accepted")
	}
	if _, err := expectZZ(s, 2, 2); err == nil {
		t.Fatal("degenerate ZZ term accepted")
	}
	if _, err := DiagonalExpectations([]*Simulator{s, newSim(t, 4, 2, 4, nil)}, nil, nil); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("mixed geometries: got %v, want ErrBatchMismatch", err)
	}
}

// TestMaxCutEnergyDecodesOnce: the MAXCUT energy of |E| edges is one
// decode pass over the state, where reading the edges one at a time is
// |E|, and it equals the sum of those one-edge reads up to rounding. The
// inspection paths charge no Stats, so the decodes are counted at the
// codec seam.
func TestMaxCutEnergyDecodesOnce(t *testing.T) {
	const n = 8
	graph := quantum.RandomRegularGraph(n, 4, 9)
	s := newSim(t, n, 2, 16, nil)
	if err := s.Run(quantum.QAOA(n, 2, 9)); err != nil {
		t.Fatal(err)
	}
	var decodes atomic.Int64
	s.cfg.Lossless = countingCodec{Codec: s.cfg.Lossless, dec: &decodes}
	want := float64(len(graph)) / 2
	for _, e := range graph {
		zz, err := expectZZ(s, e.U, e.V)
		if err != nil {
			t.Fatal(err)
		}
		want -= zz / 2
	}
	blocks := int64(len(s.ranks) * s.blocksPerRank())
	if got := decodes.Load(); got != blocks*int64(len(graph)) {
		t.Fatalf("%d edge-at-a-time correlators decoded %d blocks, want %d each", len(graph), got, blocks)
	}
	decodes.Store(0)
	e, err := s.DiagonalExpectation(nil, maxCutTerms(graph))
	if err != nil {
		t.Fatal(err)
	}
	if d := decodes.Load(); d != blocks {
		t.Fatalf("the MAXCUT energy over %d edges decoded %d blocks, the state has %d", len(graph), d, blocks)
	}
	if got := e + float64(len(graph))/2; math.Abs(got-want) > 1e-12 {
		t.Fatalf("MAXCUT energy = %v, edge-at-a-time %v", got, want)
	}
}

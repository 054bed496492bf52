package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
	"testing"

	"qcsim/internal/compress/szlike"
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
	got := e + float64(float64(len(edges))/2)
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
		want += float64(p * float64(cut))
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("MAXCUT energy = %v, reference %v", got, want)
	}
	if _, err := s.DiagonalExpectation(nil, maxCutTerms([]quantum.Edge{{U: 1, V: 1}})); err == nil {
		t.Fatal("self loop accepted")
	}
}

// termWeights lists the observable's terms as (mask, W), Z terms first,
// in the caller's order.
func termWeights(zs []quantum.ZTerm, zzs []quantum.ZZTerm) (masks []uint64, ws []float64) {
	for _, t := range zs {
		masks, ws = append(masks, 1<<uint(t.Q)), append(ws, t.W)
	}
	for _, t := range zzs {
		masks, ws = append(masks, 1<<uint(t.A)|1<<uint(t.B)), append(ws, t.W)
	}
	return masks, ws
}

// parityOdd reports whether a term on mask reads −W at index idx.
func parityOdd(idx, mask uint64) bool { return bits.OnesCount64(idx&mask)&1 != 0 }

// perAmplitudeExpectation is DiagonalExpectation written per amplitude,
// in the order that defines its bits: one running sum over the blocks in
// global order. A compact blob the state stores at two or more blocks
// adds, term by term in the caller's order, W times the term's signed
// mass Σₒ ±|aₒ|² over the block in offset order, − where the global
// index has odd parity under the term. Any other block adds p·w(idx) for
// each nonzero p = |aₒ|² in offset order, w(idx) the terms' ±W summed in
// the caller's order.
func perAmplitudeExpectation(s *Simulator, zs []quantum.ZTerm, zzs []quantum.ZZTerm) (float64, error) {
	masks, ws := termWeights(zs, zzs)
	uses := map[string]int{}
	for _, rs := range s.ranks {
		for blk := 0; blk < s.blocksPerRank(); blk++ {
			blob, err := rs.store.Peek(blk)
			if err != nil {
				return 0, err
			}
			if s.compact(blob) {
				uses[string(blob)]++
			}
		}
	}
	var acc float64
	x := make([]float64, 2*s.blockAmps())
	for r, rs := range s.ranks {
		for blk := 0; blk < s.blocksPerRank(); blk++ {
			blob, err := rs.store.Peek(blk)
			if err != nil {
				return 0, err
			}
			if err := s.decodeBlob(blob, x); err != nil {
				return 0, err
			}
			base := s.compose(r, blk, 0)
			if uses[string(blob)] >= 2 {
				var e float64
				for i, mask := range masks {
					var m float64
					for o := 0; o < s.blockAmps(); o++ {
						re, im := x[2*o], x[2*o+1]
						p := float64(re*re) + float64(im*im)
						if parityOdd(base+uint64(o), mask) {
							m -= p
						} else {
							m += p
						}
					}
					e += float64(ws[i] * m)
				}
				acc += e
				continue
			}
			for o := 0; o < s.blockAmps(); o++ {
				re, im := x[2*o], x[2*o+1]
				p := float64(re*re) + float64(im*im)
				if p == 0 {
					continue
				}
				var w float64
				for i, mask := range masks {
					if parityOdd(base+uint64(o), mask) {
						w -= ws[i]
					} else {
						w += ws[i]
					}
				}
				acc += float64(p * w)
			}
		}
	}
	return acc, nil
}

// compactBlobs counts the state's blocks that store a compact blob, and
// those whose compact blob the state stores at two or more blocks: the
// blocks a diagonal read takes by their signed masses.
func compactBlobs(t testing.TB, s *Simulator) (compact, repeated int) {
	t.Helper()
	uses := map[string]int{}
	for _, rs := range s.ranks {
		for b := range s.blocksPerRank() {
			blob, err := rs.store.Peek(b)
			if err != nil {
				t.Fatal(err)
			}
			if s.compact(blob) {
				compact++
				uses[string(blob)]++
			}
		}
	}
	for _, n := range uses {
		if n >= 2 {
			repeated += n
		}
	}
	return compact, repeated
}

// denseDistance returns the observable on the dense reference's
// probabilities q, and Σ |w(i)|·|pᵢ − qᵢ| against the stored state's p:
// the most the two expectations can differ by.
func denseDistance(t *testing.T, s *Simulator, c *quantum.Circuit, zs []quantum.ZTerm, zzs []quantum.ZZTerm) (want, bound float64) {
	t.Helper()
	masks, ws := termWeights(zs, zzs)
	ref := quantum.NewState(s.Qubits())
	ref.ApplyCircuit(c)
	amps, err := s.FullState()
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range amps {
		var w float64
		for j, mask := range masks {
			if parityOdd(uint64(i), mask) {
				w -= ws[j]
			} else {
				w += ws[j]
			}
		}
		p, q := float64(real(a)*real(a))+float64(imag(a)*imag(a)), ref.Probability(uint64(i))
		want += float64(w * q)
		bound += float64(math.Abs(w) * math.Abs(p-q))
	}
	return want, bound
}

// TestDiagonalExpectationsMatchPerAmplitudeLoop pins the readout's bits:
// the signed masses memoized per distinct compact blob a state stores
// more than once, Σ±W tabulated term-major for the other blocks, and K
// variants' sums run on a worker pool must give every variant the
// float64 the per-amplitude loop gives it alone. Each value also lies within the stored state's distance of
// the dense reference's.
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
		"dense":  {circuit: func(v int) *quantum.Circuit { return quantum.RandomCircuit(qubits, 60, int64(7+v)) }},
		"lossy":  {cfg: func(c *Config) { c.MemoryBudget = 256 }, circuit: func(v int) *quantum.Circuit { return quantum.QFT(qubits, int64(5+v)) }},
		"sparse": {circuit: func(int) *quantum.Circuit { return quantum.GHZ(qubits) }},
		// A product state whose blocks repeat: compact blobs with nonzero
		// signed masses, read at blocks of either sign.
		"redundant": {circuit: func(v int) *quantum.Circuit {
			return quantum.NewCircuit(qubits).X(1).X(2).H(4).H(5).RY(6, 0.4+float64(0.1*float64(v)))
		}},
	}
	once := 0 // compact blobs a state stores at one block: read through the table
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
				// The dense state has no compact blob, so the reference
				// is the per-amplitude loop alone: the bits the read gave
				// before compact blobs were read by their signed masses.
				// The sparse and redundant states are mostly compact blobs
				// they store more than once; GHZ's two nonzero blocks are
				// compact on 16 amplitudes, and stored once each.
				compact, repeated := compactBlobs(t, sims[v])
				if name == "dense" && compact != 0 || name != "dense" && name != "lossy" && repeated < 1<<qubits/g.block/2 {
					t.Fatalf("%s: %d compact blobs, %d of them stored more than once", label, compact, repeated)
				}
				once += compact - repeated
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
				dense, bound := denseDistance(t, s, st.circuit(v), zs, zzs)
				if math.Abs(got[v]-dense) > bound+1e-12 {
					t.Fatalf("%s: variant %d energy %v, the dense reference %v, more than the states' distance %g apart", label, v, got[v], dense, bound)
				}
			}
		}
	}
	if once == 0 {
		t.Fatal("no state stores a compact blob at one block only: the table read of a compact blob goes untested")
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
	// The memo keys on blob bytes, so variants that decode them with
	// different codecs are not one batch either.
	if _, err := DiagonalExpectations([]*Simulator{s, newSim(t, 4, 1, 4, func(c *Config) { c.Lossy = szlike.NewA() })}, nil, nil); !errors.Is(err, ErrBatchMismatch) {
		t.Fatalf("mixed codecs: got %v, want ErrBatchMismatch", err)
	}
}

// TestMaxCutEnergyDecodesOnce: the MAXCUT energy of |E| edges is one
// read of the state, where reading the edges one at a time is |E|, and
// it equals the sum of those one-edge reads up to rounding. A dense QAOA
// state has no compact blob, so a read decodes every block; GHZ is a
// few distinct compact blobs, which a read decodes once each. The
// inspection paths charge no Stats, so the decodes are counted at the
// codec seam.
func TestMaxCutEnergyDecodesOnce(t *testing.T) {
	const n = 8
	graph := quantum.RandomRegularGraph(n, 4, 9)
	for _, tc := range []struct {
		name string
		c    *quantum.Circuit
	}{{"qaoa", quantum.QAOA(n, 2, 9)}, {"ghz", quantum.GHZ(n)}} {
		s := newSim(t, n, 2, 16, nil)
		if err := s.Run(tc.c); err != nil {
			t.Fatal(err)
		}
		var decodes atomic.Int64
		s.cfg.Lossless = countingCodec{Codec: s.cfg.Lossless, dec: &decodes}
		reads := diagonalReads(t, s)
		blocks := int64(len(s.ranks) * s.blocksPerRank())
		if tc.name == "qaoa" && reads != blocks || tc.name == "ghz" && reads > 3 {
			t.Fatalf("%s: a read should decode %d of %d blocks", tc.name, reads, blocks)
		}
		want := float64(len(graph)) / 2
		for _, e := range graph {
			zz, err := expectZZ(s, e.U, e.V)
			if err != nil {
				t.Fatal(err)
			}
			want -= float64(zz / 2)
		}
		if got := decodes.Load(); got != reads*int64(len(graph)) {
			t.Fatalf("%s: %d edge-at-a-time correlators decoded %d blobs, want %d each", tc.name, len(graph), got, reads)
		}
		decodes.Store(0)
		e, err := s.DiagonalExpectation(nil, maxCutTerms(graph))
		if err != nil {
			t.Fatal(err)
		}
		if d := decodes.Load(); d != reads {
			t.Fatalf("%s: the MAXCUT energy over %d edges decoded %d blobs, want %d", tc.name, len(graph), d, reads)
		}
		if got := e + float64(float64(len(graph))/2); math.Abs(got-want) > 1e-12 {
			t.Fatalf("%s: MAXCUT energy = %v, edge-at-a-time %v", tc.name, got, want)
		}
	}
}

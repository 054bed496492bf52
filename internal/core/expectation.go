package core

import (
	"fmt"
	"math/bits"
)

// Pauli-Z expectation values over the compressed state. These are the
// observables variational workloads (QAOA, VQE) read out: ⟨Z_q⟩ and
// two-point correlators ⟨Z_a Z_b⟩, from which MAXCUT energies follow
// without sampling.

// ExpectationZ returns ⟨Z_q⟩ = P(q=0) - P(q=1).
func (s *Simulator) ExpectationZ(q int) (float64, error) {
	p1, err := s.ProbabilityOne(q)
	if err != nil {
		return 0, err
	}
	return 1 - 2*p1, nil
}

// ExpectationZZ returns ⟨Z_a Z_b⟩: +1 weight where the bits agree, -1
// where they differ.
func (s *Simulator) ExpectationZZ(a, b int) (float64, error) {
	joint, err := s.jointDistribution(a, b)
	if err != nil {
		return 0, err
	}
	return correlator(joint), nil
}

// correlator is ⟨Z_a Z_b⟩ of a joint distribution [P(00), P(01), P(10), P(11)].
func correlator(joint [4]float64) float64 {
	return joint[0] + joint[3] - joint[1] - joint[2]
}

// ZTerm is one weighted single-qubit Pauli-Z term W·Z_Q of a diagonal
// observable.
type ZTerm struct {
	Q int
	W float64
}

// ZZTerm is one weighted two-qubit correlator W·Z_A·Z_B.
type ZZTerm struct {
	A, B int
	W    float64
}

// DiagonalExpectation evaluates Σ W·⟨Z_Q⟩ + Σ W·⟨Z_A Z_B⟩ in a single
// decode pass over the compressed blocks, instead of one pass per term
// the way chained ExpectationZ/ExpectationZZ calls would. It is the
// K = 1 case of DiagonalExpectations.
//
// Like ExpectationZZ, the value is computed against the stored state
// as-is (no renormalization of lossy norm drift).
func (s *Simulator) DiagonalExpectation(zs []ZTerm, zzs []ZZTerm) (float64, error) {
	es, err := DiagonalExpectations([]*Simulator{s}, zs, zzs)
	if err != nil {
		return 0, err
	}
	return es[0], nil
}

// DiagonalExpectations evaluates one diagonal observable on K states of
// one geometry (a RunBatch's variants): energy v is what
// sims[v].DiagonalExpectation returns, bit for bit. A gradient reads one
// energy per variant of a parameter-shift batch, and the weight a basis
// state carries — w(idx) = Σ ±W over the terms — is a property of the
// observable, not of the state, so it is priced once per block for all
// K instead of once per amplitude per variant.
//
// The walk is block-index-first. Per (rank, block) a one-block table
// w[o] is filled term-major — every Z term, then every ZZ term, in the
// caller's order, each one loop over the offsets — which performs, per
// offset, the additions the amplitude-major loop would, in its order.
// Then the K variants fan out over variant 0's worker pool, each
// decoding its block into its worker's scratch and continuing its own
// running sum in offset order: the parallelism is across variants, each
// variant's chain stays the sequential rank → block → offset one.
func DiagonalExpectations(sims []*Simulator, zs []ZTerm, zzs []ZZTerm) ([]float64, error) {
	if len(sims) == 0 {
		return nil, nil
	}
	s0 := sims[0]
	for v, s := range sims {
		if s.cfg.Qubits != s0.cfg.Qubits || s.cfg.Ranks != s0.cfg.Ranks || s.offsetBits != s0.offsetBits {
			return nil, fmt.Errorf("%w: variant %d geometry differs from variant 0", ErrBatchMismatch, v)
		}
	}
	for _, t := range zs {
		if t.Q < 0 || t.Q >= s0.cfg.Qubits {
			return nil, fmt.Errorf("core: invalid qubit %d in Z term", t.Q)
		}
	}
	for _, t := range zzs {
		if t.A < 0 || t.A >= s0.cfg.Qubits || t.B < 0 || t.B >= s0.cfg.Qubits || t.A == t.B {
			return nil, fmt.Errorf("core: invalid qubit pair (%d, %d) in ZZ term", t.A, t.B)
		}
	}
	acc := make([]float64, len(sims))
	w := make([]float64, s0.blockAmps())
	for r, rs0 := range s0.ranks {
		for blk := 0; blk < s0.blocksPerRank(); blk++ {
			base := s0.compose(r, blk, 0)
			clear(w)
			for _, t := range zs {
				addParityTerm(w, base, 1<<uint(t.Q), t.W)
			}
			for _, t := range zzs {
				addParityTerm(w, base, 1<<uint(t.A)|1<<uint(t.B), t.W)
			}
			err := s0.forEach(rs0, len(sims), func(ws *workerState, v int) error {
				s := sims[v]
				blob, err := s.ranks[r].store.Peek(blk)
				if err != nil {
					return err
				}
				if err := s.decodeBlob(blob, ws.x); err != nil {
					return err
				}
				a := acc[v]
				for o, wo := range w {
					re, im := ws.x[2*o], ws.x[2*o+1]
					if p := re*re + im*im; p != 0 {
						a += p * wo
					}
				}
				acc[v] = a
				return nil
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

// addParityTerm adds one term's ±W to the block table: w[o] gains +W
// where the bits of the global index base|o under mask have even parity
// (Z_Q reads +1 on bit 0, Z_A·Z_B on agreeing bits), −W where odd.
// x + (−W) is x − W bit for bit, so the sign may live in the addend.
func addParityTerm(w []float64, base, mask uint64, W float64) {
	sign := [2]float64{W, -W}
	if bits.OnesCount64(base&mask)&1 != 0 {
		sign = [2]float64{-W, W}
	}
	m := uint(mask) & uint(len(w)-1)
	for o := range w {
		w[o] += sign[bits.OnesCount(uint(o)&m)&1]
	}
}

// CutEdge is an undirected graph edge for MaxCutEnergy.
type CutEdge struct{ U, V int }

// MaxCutEnergy returns the expected cut value Σ_edges (1 - ⟨Z_u Z_v⟩)/2
// of the current state — the QAOA objective — from one decode pass over
// the state, not one per edge.
func (s *Simulator) MaxCutEnergy(edges []CutEdge) (float64, error) {
	pairs := make([][2]int, len(edges))
	for i, e := range edges {
		if e.U == e.V {
			return 0, fmt.Errorf("core: self-loop edge (%d,%d)", e.U, e.V)
		}
		pairs[i] = [2]int{e.U, e.V}
	}
	joints, err := s.jointDistributions(pairs)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, joint := range joints {
		sum += (1 - correlator(joint)) / 2
	}
	return sum, nil
}

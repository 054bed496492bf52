package core

import (
	"fmt"
	"math/bits"

	"qcsim/internal/quantum"
)

// Pauli-Z expectation values over the compressed state: the diagonal
// observables variational workloads (QAOA, VQE) read out — ⟨Z_q⟩,
// two-point correlators ⟨Z_a Z_b⟩ and the MAXCUT energies they sum to —
// without sampling.

// DiagonalExpectation evaluates Σ W·⟨Z_Q⟩ + Σ W·⟨Z_A Z_B⟩ in a single
// decode pass over the compressed blocks, however many terms there are.
// It is the K = 1 case of DiagonalExpectations.
//
// The value is computed against the stored state as-is: Σ w(idx)·|a|²
// with no renormalization of lossy norm drift, so ⟨Z_q⟩ is P(q=0) −
// P(q=1) of the stored amplitudes, not 1 − 2·P(q=1).
func (s *Simulator) DiagonalExpectation(zs []quantum.ZTerm, zzs []quantum.ZZTerm) (float64, error) {
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
// decoding its block into a buffer of the call's own, one per worker id,
// and continuing its own running sum in offset order: the parallelism is
// across variants, each variant's chain stays the sequential rank →
// block → offset one. Like readBlocks, the read borrows no worker's
// scratch pair, so inspecting a clone allocates none.
func DiagonalExpectations(sims []*Simulator, zs []quantum.ZTerm, zzs []quantum.ZZTerm) ([]float64, error) {
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
	xs := make([][]float64, s0.cfg.Workers)
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
				x := xs[ws.id]
				if x == nil {
					x = make([]float64, 2*len(w))
					xs[ws.id] = x
				}
				if err := s.decodeBlob(blob, x); err != nil {
					return err
				}
				a := acc[v]
				for o, wo := range w {
					re, im := x[2*o], x[2*o+1]
					if p := float64(re*re) + float64(im*im); p != 0 {
						a += float64(p * wo)
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

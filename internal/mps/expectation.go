package mps

import (
	"fmt"
	"math/cmplx"

	"qcsim/internal/quantum"
)

// Diagonal observables by transfer-matrix contraction — the surface the
// compressed engine exposes (DiagonalExpectation, ProbabilityOne)
// implemented without ever materializing 2^n amplitudes. Each
// contraction sweeps the chain once, carrying a χ×χ environment:
// O(n·χ⁴) time, O(χ²) memory.

// contractDiag contracts ⟨ψ| D |ψ⟩ for the diagonal operator
// D = ⊗_q diag(weight(q,0), weight(q,1)). A nil weight means the
// identity at every site, i.e. the squared norm ⟨ψ|ψ⟩.
func (s *State) contractDiag(weight func(q, p int) float64) float64 {
	// E starts as the 1×1 identity environment and is contracted with
	// each site's (weighted) transfer operator.
	bl := 1
	E := []complex128{1} // bl×bl row-major
	for q := 0; q < s.n; q++ {
		br := s.bondR[q]
		t := s.tensors[q]
		nE := make([]complex128, br*br)
		for r1 := 0; r1 < br; r1++ {
			for r2 := 0; r2 < br; r2++ {
				var acc complex128
				for l1 := 0; l1 < bl; l1++ {
					for l2 := 0; l2 < bl; l2++ {
						e := E[l1*bl+l2]
						if e == 0 {
							continue
						}
						for p := 0; p < 2; p++ {
							term := e * cmplx.Conj(t[l1*2*br+p*br+r1]) * t[l2*2*br+p*br+r2]
							if weight != nil {
								term *= complex(weight(q, p), 0)
							}
							acc += term
						}
					}
				}
				nE[r1*br+r2] = acc
			}
		}
		E = nE
		bl = br
	}
	return real(E[0])
}

// zWeight is the Z eigenvalue at sites a and b (pass b = -1 for a
// single site): +1 for |0⟩, -1 for |1⟩, identity elsewhere. Plain int
// compares — this closure runs in the innermost contraction loop.
func zWeight(a, b int) func(q, p int) float64 {
	return func(q, p int) float64 {
		if p == 1 && (q == a || q == b) {
			return -1
		}
		return 1
	}
}

func (s *State) checkQubit(q int) error {
	if q < 0 || q >= s.n {
		return fmt.Errorf("mps: qubit %d out of range [0,%d)", q, s.n)
	}
	return nil
}

// DiagonalExpectation returns Σ W·⟨Z_Q⟩ + Σ W·⟨Z_A Z_B⟩, each term
// normalized by ⟨ψ|ψ⟩ (1 up to truncation renormalization rounding),
// which is contracted once for all of them.
func (s *State) DiagonalExpectation(zs []quantum.ZTerm, zzs []quantum.ZZTerm) (float64, error) {
	for _, t := range zs {
		if err := s.checkQubit(t.Q); err != nil {
			return 0, err
		}
	}
	for _, t := range zzs {
		if err := s.checkQubit(t.A); err != nil {
			return 0, err
		}
		if err := s.checkQubit(t.B); err != nil {
			return 0, err
		}
		if t.A == t.B {
			return 0, fmt.Errorf("mps: ZZ term on the single qubit %d", t.A)
		}
	}
	norm := s.contractDiag(nil)
	if norm <= 0 {
		return 0, fmt.Errorf("mps: state has zero norm")
	}
	var e float64
	for _, t := range zs {
		e += t.W * (s.contractDiag(zWeight(t.Q, -1)) / norm)
	}
	for _, t := range zzs {
		e += t.W * (s.contractDiag(zWeight(t.A, t.B)) / norm)
	}
	return e, nil
}

// ProbabilityOne returns P(qubit q = 1) = (1 - ⟨Z_q⟩)/2.
func (s *State) ProbabilityOne(q int) (float64, error) {
	z, err := s.DiagonalExpectation([]quantum.ZTerm{{Q: q, W: 1}}, nil)
	if err != nil {
		return 0, err
	}
	p := (1 - z) / 2
	// Clamp floating-point residue so callers can treat it as a
	// probability.
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return p, nil
}

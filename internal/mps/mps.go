// Package mps implements a matrix-product-state (tensor network)
// simulator — the §2.2 comparator the paper positions its approach
// against. An MPS stores one 3-index tensor per qubit; entanglement is
// capped by the bond dimension χ, and every two-qubit gate pays an SVD
// whose truncation discards singular-value weight.
//
// The package exists to demonstrate the paper's comparison empirically:
//
//   - Low-entanglement circuits (GHZ, shallow QAOA) simulate in
//     polynomial memory where the full-state engine needs 2^n.
//   - Entangling circuits blow past any fixed χ; the discarded weight —
//     tracked like the paper's fidelity ledger — lower-bounds the
//     fidelity loss, while the compressed full-state engine degrades
//     gracefully via pointwise error bounds instead.
//   - Measurement collapse and full-state assertion checking have no
//     efficient general equivalent here: the paper's §1 argument for
//     full-state methods.
//
// Gate support: arbitrary single-qubit unitaries and singly-controlled
// unitaries between any qubit pair (routed with SWAPs). Multi-control
// gates and measurement are rejected.
package mps

import (
	"fmt"
	"math"
	"math/cmplx"

	"qcsim/internal/quantum"
)

// State is an MPS over n qubits with bond dimension cap chi.
// tensors[q] has shape (bondL[q], 2, bondR[q]) stored row-major as
// [l*2*br + p*br + r].
type State struct {
	n       int
	chi     int
	tensors [][]complex128
	bondL   []int
	bondR   []int
	// ledger is Π(1 - discarded weight) over truncating SVDs — the
	// tensor-network analog of the paper's Eq. 11 fidelity ledger.
	ledger float64
	// Truncations counts SVDs that actually discarded weight.
	Truncations int
}

// New returns |0...0⟩ with bond-dimension cap chi ≥ 2.
func New(n, chi int) (*State, error) {
	if n < 1 {
		return nil, fmt.Errorf("mps: need ≥ 1 qubit")
	}
	if chi < 2 {
		return nil, fmt.Errorf("mps: bond dimension %d too small", chi)
	}
	s := &State{n: n, chi: chi, ledger: 1}
	s.tensors = make([][]complex128, n)
	s.bondL = make([]int, n)
	s.bondR = make([]int, n)
	for q := 0; q < n; q++ {
		s.bondL[q], s.bondR[q] = 1, 1
		t := make([]complex128, 2)
		t[0] = 1 // physical index 0
		s.tensors[q] = t
	}
	return s, nil
}

// Qubits returns n.
func (s *State) Qubits() int { return s.n }

// Reset reinitializes the state to |0...0⟩ and the truncation ledger to
// 1, keeping n and χ.
func (s *State) Reset() {
	s.SetBasisState(0)
}

// SetBasisState reinitializes the state to the product state |idx⟩ —
// bond dimension 1 everywhere, ledger 1.
func (s *State) SetBasisState(idx uint64) {
	for q := 0; q < s.n; q++ {
		s.bondL[q], s.bondR[q] = 1, 1
		t := make([]complex128, 2)
		t[idx>>uint(q)&1] = 1
		s.tensors[q] = t
	}
	s.ledger = 1
	s.Truncations = 0
}

// FidelityLowerBound returns Π(1 - discarded SVD weight).
func (s *State) FidelityLowerBound() float64 { return s.ledger }

// ApplyCircuit applies every gate of c.
func (s *State) ApplyCircuit(c *quantum.Circuit) error {
	if c.N != s.n {
		return fmt.Errorf("mps: circuit has %d qubits, state %d", c.N, s.n)
	}
	for _, g := range c.Gates {
		if err := s.ApplyGate(g); err != nil {
			return err
		}
	}
	return nil
}

// ApplyGate applies one gate. Measurement and multi-controlled gates
// report a typed UnsupportedOpError wrapping ErrUnsupportedOp.
func (s *State) ApplyGate(g quantum.Gate) error {
	if g.Kind == quantum.KindMeasure {
		return unsupported("measure",
			"measurement collapse has no efficient tensor-network form (the paper's §1 limitation)")
	}
	switch len(g.Controls) {
	case 0:
		s.apply1(g.Target, g.U)
		return nil
	case 1:
		return s.applyControlled(g.Controls[0], g.Target, g.U)
	default:
		return unsupported("multi-control",
			fmt.Sprintf("%d-controlled %q gate (decompose to ≤1 control)", len(g.Controls), g.Name))
	}
}

// apply1 contracts a single-qubit unitary into tensor q.
func (s *State) apply1(q int, u quantum.Matrix2) {
	bl, br := s.bondL[q], s.bondR[q]
	t := s.tensors[q]
	for l := 0; l < bl; l++ {
		for r := 0; r < br; r++ {
			a0 := t[l*2*br+0*br+r]
			a1 := t[l*2*br+1*br+r]
			t[l*2*br+0*br+r] = u[0][0]*a0 + u[0][1]*a1
			t[l*2*br+1*br+r] = u[1][0]*a0 + u[1][1]*a1
		}
	}
}

// controlled4 builds the 4×4 matrix of a controlled-u on (control,
// target) adjacent pair with control as the LEFT (lower-index) qubit.
// Index order: (control, target) → basis c*2+t.
func controlled4(u quantum.Matrix2) [4][4]complex128 {
	var m [4][4]complex128
	m[0][0], m[1][1] = 1, 1 // control 0: identity
	m[2][2] = u[0][0]
	m[2][3] = u[0][1]
	m[3][2] = u[1][0]
	m[3][3] = u[1][1]
	return m
}

// swap4 is the SWAP matrix in the same basis.
func swap4() [4][4]complex128 {
	var m [4][4]complex128
	m[0][0], m[1][2], m[2][1], m[3][3] = 1, 1, 1, 1
	return m
}

// applyControlled routes control and target adjacent with SWAPs, applies
// the controlled gate, and routes back.
func (s *State) applyControlled(ctl, tgt int, u quantum.Matrix2) error {
	if ctl == tgt {
		return fmt.Errorf("mps: control equals target")
	}
	// Move ctl next to tgt (just left of it if ctl < tgt, right
	// otherwise) by nearest-neighbor SWAPs.
	pos := ctl
	for pos < tgt-1 {
		s.apply2(pos, swap4())
		pos++
	}
	for pos > tgt+1 {
		s.apply2(pos-1, swap4())
		pos--
	}
	if pos == tgt-1 {
		s.apply2(pos, controlled4(u))
	} else {
		// Control sits right of target: conjugate by one SWAP to put
		// the control on the left of the pair (tgt, pos).
		s.apply2(tgt, swap4())
		s.apply2(tgt, controlled4(u))
		s.apply2(tgt, swap4())
	}
	// Route the control back.
	for pos > ctl {
		s.apply2(pos-1, swap4())
		pos--
	}
	for pos < ctl {
		s.apply2(pos, swap4())
		pos++
	}
	return nil
}

// apply2 applies a 4×4 unitary to the adjacent pair (q, q+1), then
// splits with a truncated SVD.
func (s *State) apply2(q int, m [4][4]complex128) {
	bl := s.bondL[q]
	bm := s.bondR[q] // == bondL[q+1]
	br := s.bondR[q+1]
	A, B := s.tensors[q], s.tensors[q+1]

	// theta[l, p0, p1, r] = Σ_k A[l,p0,k]·B[k,p1,r], then gate applied
	// on (p0,p1).
	theta := make([]complex128, bl*4*br)
	for l := 0; l < bl; l++ {
		for p0 := 0; p0 < 2; p0++ {
			for p1 := 0; p1 < 2; p1++ {
				for r := 0; r < br; r++ {
					var v complex128
					for k := 0; k < bm; k++ {
						v += A[l*2*bm+p0*bm+k] * B[k*2*br+p1*br+r]
					}
					theta[l*4*br+(p0*2+p1)*br+r] = v
				}
			}
		}
	}
	out := make([]complex128, bl*4*br)
	for l := 0; l < bl; l++ {
		for r := 0; r < br; r++ {
			for pi := 0; pi < 4; pi++ {
				var v complex128
				for pj := 0; pj < 4; pj++ {
					v += m[pi][pj] * theta[l*4*br+pj*br+r]
				}
				out[l*4*br+pi*br+r] = v
			}
		}
	}

	// Reshape to (bl·2) × (2·br) and SVD.
	M := newMatrix(bl*2, 2*br)
	for l := 0; l < bl; l++ {
		for p0 := 0; p0 < 2; p0++ {
			for p1 := 0; p1 < 2; p1++ {
				for r := 0; r < br; r++ {
					M.set(l*2+p0, p1*br+r, out[l*4*br+(p0*2+p1)*br+r])
				}
			}
		}
	}
	U, sv, V := svd(M)

	// Truncate to chi, tracking the discarded weight.
	keep := len(sv)
	if keep > s.chi {
		keep = s.chi
	}
	var total, kept float64
	for i, v := range sv {
		w := v * v
		total += w
		if i < keep {
			kept += w
		}
	}
	// Drop numerically-dead singular values too.
	for keep > 1 && sv[keep-1] < 1e-13*sv[0] {
		keep--
	}
	if total > 0 && kept < total {
		s.ledger *= kept / total
		s.Truncations++
	}
	// New tensors: A' = U (bl,2,keep); B' = diag(s)·V† (keep,2,br),
	// with the kept spectrum renormalized so the state stays unit norm
	// (standard MPS practice; the ledger already recorded the loss).
	var keptW float64
	for i := 0; i < keep; i++ {
		keptW += sv[i] * sv[i]
	}
	renorm := 1.0
	if keptW > 0 && total > 0 {
		renorm = math.Sqrt(total / keptW)
	}
	Anew := make([]complex128, bl*2*keep)
	for l := 0; l < bl; l++ {
		for p0 := 0; p0 < 2; p0++ {
			for k := 0; k < keep; k++ {
				Anew[l*2*keep+p0*keep+k] = U.at(l*2+p0, k)
			}
		}
	}
	Bnew := make([]complex128, keep*2*br)
	for k := 0; k < keep; k++ {
		sk := complex(sv[k]*renorm, 0)
		for p1 := 0; p1 < 2; p1++ {
			for r := 0; r < br; r++ {
				Bnew[k*2*br+p1*br+r] = sk * cmplx.Conj(V.at(p1*br+r, k))
			}
		}
	}
	s.tensors[q] = Anew
	s.tensors[q+1] = Bnew
	s.bondR[q] = keep
	s.bondL[q+1] = keep
}

// Amplitude contracts ⟨x|ψ⟩ in O(n·χ²).
func (s *State) Amplitude(x uint64) complex128 {
	// Row vector v of length bond, starting at 1.
	v := []complex128{1}
	for q := 0; q < s.n; q++ {
		p := int(x >> uint(q) & 1)
		bl, br := s.bondL[q], s.bondR[q]
		t := s.tensors[q]
		nv := make([]complex128, br)
		for r := 0; r < br; r++ {
			var acc complex128
			for l := 0; l < bl; l++ {
				acc += v[l] * t[l*2*br+p*br+r]
			}
			nv[r] = acc
		}
		v = nv
	}
	return v[0]
}

// Norm returns Σ|⟨x|ψ⟩|² by exact contraction of the transfer matrices.
func (s *State) Norm() float64 {
	return s.contractDiag(nil)
}

// MaxBond returns the largest bond dimension currently in use — the
// entanglement cost the paper's treewidth argument is about.
func (s *State) MaxBond() int {
	m := 1
	for q := 0; q < s.n; q++ {
		if s.bondR[q] > m {
			m = s.bondR[q]
		}
	}
	return m
}

// MemoryBytes returns the current tensor storage footprint.
func (s *State) MemoryBytes() int64 {
	var total int64
	for _, t := range s.tensors {
		total += int64(len(t)) * 16
	}
	return total
}

// Dense contracts the full state vector (test and inspection scales
// only — the result is 2^n amplitudes).
func (s *State) Dense() ([]complex128, error) {
	if s.n > 26 {
		return nil, fmt.Errorf("mps: dense contraction of %d qubits refused", s.n)
	}
	out := make([]complex128, 1<<uint(s.n))
	for x := range out {
		out[x] = s.Amplitude(uint64(x))
	}
	return out, nil
}

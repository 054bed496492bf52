package core

import (
	"fmt"
	"math"
)

// Statistical assertions for quantum program debugging — the full-state
// capability the paper motivates (§1, §2.2, citing Huang & Martonosi's
// statistical assertions): because the simulator holds the entire state,
// assertions about qubits can be checked mid-circuit without sampling a
// physical device.

// AssertClassical checks that qubit q reads `value` with probability at
// least 1-tol, i.e. the qubit is (approximately) classical in the
// computational basis.
func (s *Simulator) AssertClassical(q, value int, tol float64) error {
	p1, err := s.ProbabilityOne(q)
	if err != nil {
		return err
	}
	p := p1
	if value == 0 {
		p = 1 - p1
	}
	if p < 1-tol {
		return fmt.Errorf("%w: P(q%d=%d) = %.6f < %.6f", ErrAssertFailed, q, value, p, 1-tol)
	}
	return nil
}

// AssertSuperposition checks that qubit q is in an (approximately)
// uniform superposition: P(1) within tol of 1/2.
func (s *Simulator) AssertSuperposition(q int, tol float64) error {
	p1, err := s.ProbabilityOne(q)
	if err != nil {
		return err
	}
	if math.Abs(p1-0.5) > tol {
		return fmt.Errorf("%w: P(q%d=1) = %.6f, not within %.3f of 1/2", ErrAssertFailed, q, p1, tol)
	}
	return nil
}

// AssertProduct checks that qubits a and b are (approximately)
// unentangled in the computational basis by comparing the joint
// distribution against the product of marginals (total-variation
// distance ≤ tol). A maximally entangled pair fails with distance 1/2.
func (s *Simulator) AssertProduct(a, b int, tol float64) error {
	joint, err := s.jointDistribution(a, b)
	if err != nil {
		return err
	}
	pa := joint[2] + joint[3] // P(a=1)
	pb := joint[1] + joint[3] // P(b=1)
	var tv float64
	for i := 0; i < 4; i++ {
		qa, qb := 1-pa, 1-pb
		if i&2 != 0 {
			qa = pa
		}
		if i&1 != 0 {
			qb = pb
		}
		tv += math.Abs(joint[i] - float64(qa*qb))
	}
	tv /= 2
	if tv > tol {
		return fmt.Errorf("%w: qubits %d,%d entangled (TV distance %.6f > %.6f)", ErrAssertFailed, a, b, tv, tol)
	}
	return nil
}

// jointDistribution returns [P(00), P(01), P(10), P(11)] over qubits
// (a, b), with a the high bit, from one read of the state (readBlocks)
// in rank → block → offset order.
func (s *Simulator) jointDistribution(a, b int) ([4]float64, error) {
	var joint [4]float64
	if a == b || a < 0 || b < 0 || a >= s.cfg.Qubits || b >= s.cfg.Qubits {
		return joint, fmt.Errorf("%w (%d, %d)", ErrInvalidPair, a, b)
	}
	ua, ub := uint(a), uint(b)
	err := s.readBlocks(0, func(base uint64, x []float64) {
		for o := range s.blockAmps() {
			re, im := x[2*o], x[2*o+1]
			idx := base + uint64(o)
			joint[(idx>>ua&1)<<1|idx>>ub&1] += float64(re*re) + float64(im*im)
		}
	})
	return joint, err
}

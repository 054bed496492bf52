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
		tv += math.Abs(joint[i] - qa*qb)
	}
	tv /= 2
	if tv > tol {
		return fmt.Errorf("%w: qubits %d,%d entangled (TV distance %.6f > %.6f)", ErrAssertFailed, a, b, tv, tol)
	}
	return nil
}

// jointDistribution returns [P(00), P(01), P(10), P(11)] over qubits
// (a, b), with a the high bit: the one-pair case of jointDistributions.
func (s *Simulator) jointDistribution(a, b int) ([4]float64, error) {
	joints, err := s.jointDistributions([][2]int{{a, b}})
	if err != nil {
		return [4]float64{}, err
	}
	return joints[0], nil
}

// jointDistributions returns jointDistribution for every pair, from one
// read of the state (readBlocks) however many pairs there are. Each
// block's probabilities are squared into its scratch in place once;
// every pair then folds them into its own four buckets, so a pair's sums
// run in the rank → block → offset order a pass of its own would take
// and come out the same floats.
func (s *Simulator) jointDistributions(pairs [][2]int) ([][4]float64, error) {
	for _, p := range pairs {
		if a, b := p[0], p[1]; a == b || a < 0 || b < 0 || a >= s.cfg.Qubits || b >= s.cfg.Qubits {
			return nil, fmt.Errorf("%w (%d, %d)", ErrInvalidPair, a, b)
		}
	}
	joints := make([][4]float64, len(pairs))
	err := s.readBlocks(0, func(base uint64, x []float64) {
		probs := x[:s.blockAmps()]
		for o := range probs {
			re, im := x[2*o], x[2*o+1]
			probs[o] = re*re + im*im // slot o was read at offset o/2
		}
		for i, p := range pairs {
			a, b, joint := uint(p[0]), uint(p[1]), &joints[i]
			for o, pr := range probs {
				idx := base + uint64(o)
				joint[(idx>>a&1)<<1|idx>>b&1] += pr
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return joints, nil
}

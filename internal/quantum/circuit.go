package quantum

import (
	"errors"
	"fmt"
	"slices"
)

// Circuit is an ordered gate list over N qubits. Builder methods append
// gates and return the circuit for chaining.
type Circuit struct {
	N     int
	Gates []Gate
}

// NewCircuit returns an empty circuit on n qubits.
func NewCircuit(n int) *Circuit {
	if n < 1 {
		panic(fmt.Sprintf("quantum: circuit needs ≥1 qubit, got %d", n))
	}
	return &Circuit{N: n}
}

// Depth returns the number of gates (the paper counts circuit depth in
// gates for the simulation cost model, §5.5).
func (c *Circuit) Depth() int { return len(c.Gates) }

// operandsErr is the one operand rule, shared by the builders (which
// panic on it) and Validate: the target and every control lie in [0, n)
// and no qubit appears twice in one gate. Gates touch at most a few
// qubits, so a quadratic scan beats allocating a set — this sits on the
// circuit-builder hot path.
func operandsErr(n, target int, controls []int) error {
	if target < 0 || target >= n {
		return fmt.Errorf("quantum: qubit %d out of range [0,%d)", target, n)
	}
	for i, q := range controls {
		if q < 0 || q >= n {
			return fmt.Errorf("quantum: qubit %d out of range [0,%d)", q, n)
		}
		if q == target || slices.Contains(controls[:i], q) {
			return fmt.Errorf("quantum: duplicate qubit %d in one gate", q)
		}
	}
	return nil
}

// check panics on operands the builders must never append.
func (c *Circuit) check(target int, controls ...int) {
	if err := operandsErr(c.N, target, controls); err != nil {
		panic(err.Error())
	}
}

// Validate reports the first malformed gate of a circuit that was not
// built through the checked builders — decoded off a wire, or assembled
// by hand: a register narrower than one qubit, a gate kind other than
// KindUnitary and KindMeasure (that error wraps errors.ErrUnsupported),
// or an operand the builders would have refused.
func (c *Circuit) Validate() error {
	if c.N < 1 {
		return fmt.Errorf("quantum: circuit needs ≥1 qubit, got %d", c.N)
	}
	for i, g := range c.Gates {
		if g.Kind != KindUnitary && g.Kind != KindMeasure {
			return fmt.Errorf("quantum: gate %d has unknown kind %d: %w", i, g.Kind, errors.ErrUnsupported)
		}
		if err := operandsErr(c.N, g.Target, g.Controls); err != nil {
			return fmt.Errorf("%w (gate %d)", err, i)
		}
	}
	return nil
}

// Apply appends a named single-qubit unitary on target.
func (c *Circuit) Apply(name string, u Matrix2, target int) *Circuit {
	c.check(target)
	c.Gates = append(c.Gates, Gate{Name: name, Target: target, U: u})
	return c
}

// ApplyControlled appends a controlled unitary: u fires on target iff all
// controls are |1⟩.
func (c *Circuit) ApplyControlled(name string, u Matrix2, target int, controls ...int) *Circuit {
	c.check(target, controls...)
	cs := append([]int(nil), controls...)
	c.Gates = append(c.Gates, Gate{Name: name, Target: target, Controls: cs, U: u})
	return c
}

// Standard gate builders.

func (c *Circuit) H(q int) *Circuit   { return c.Apply("h", MatH, q) }
func (c *Circuit) X(q int) *Circuit   { return c.Apply("x", MatX, q) }
func (c *Circuit) Y(q int) *Circuit   { return c.Apply("y", MatY, q) }
func (c *Circuit) Z(q int) *Circuit   { return c.Apply("z", MatZ, q) }
func (c *Circuit) S(q int) *Circuit   { return c.Apply("s", MatS, q) }
func (c *Circuit) Sdg(q int) *Circuit { return c.Apply("sdg", MatSdg, q) }
func (c *Circuit) T(q int) *Circuit   { return c.Apply("t", MatT, q) }
func (c *Circuit) Tdg(q int) *Circuit { return c.Apply("tdg", MatTdg, q) }

// SqrtX and SqrtY are the supremacy-circuit gates X^1/2 and Y^1/2.
func (c *Circuit) SqrtX(q int) *Circuit { return c.Apply("sx", MatSqrtX, q) }
func (c *Circuit) SqrtY(q int) *Circuit { return c.Apply("sy", MatSqrtY, q) }

// Rotations and phases.

func (c *Circuit) RX(q int, theta float64) *Circuit { return c.Apply("rx", RX(theta), q) }
func (c *Circuit) RY(q int, theta float64) *Circuit { return c.Apply("ry", RY(theta), q) }
func (c *Circuit) RZ(q int, theta float64) *Circuit { return c.Apply("rz", RZ(theta), q) }
func (c *Circuit) Phase(q int, theta float64) *Circuit {
	return c.Apply("p", Phase(theta), q)
}

// Two-qubit and three-qubit gates.

// CNOT appends a controlled-X with control ctl and target tgt.
func (c *Circuit) CNOT(ctl, tgt int) *Circuit { return c.ApplyControlled("cx", MatX, tgt, ctl) }

// CZ appends a controlled-Z.
func (c *Circuit) CZ(ctl, tgt int) *Circuit { return c.ApplyControlled("cz", MatZ, tgt, ctl) }

// CPhase appends a controlled phase gate (the QFT ladder element).
func (c *Circuit) CPhase(ctl, tgt int, theta float64) *Circuit {
	return c.ApplyControlled("cp", Phase(theta), tgt, ctl)
}

// Toffoli appends a doubly-controlled X (the oracle workhorse, §5.3).
func (c *Circuit) Toffoli(c1, c2, tgt int) *Circuit {
	return c.ApplyControlled("ccx", MatX, tgt, c1, c2)
}

// CCZ appends a doubly-controlled Z.
func (c *Circuit) CCZ(c1, c2, tgt int) *Circuit {
	return c.ApplyControlled("ccz", MatZ, tgt, c1, c2)
}

// SWAP exchanges two qubits via three CNOTs.
func (c *Circuit) SWAP(a, b int) *Circuit {
	return c.CNOT(a, b).CNOT(b, a).CNOT(a, b)
}

// MCZ appends a k-controlled Z as a native multi-controlled gate. The
// Grover builder instead decomposes into Toffolis (the paper's oracle
// gate set); this native form exists for tests and small utilities.
func (c *Circuit) MCZ(tgt int, controls ...int) *Circuit {
	return c.ApplyControlled("mcz", MatZ, tgt, controls...)
}

// Measure appends a computational-basis measurement of q.
func (c *Circuit) Measure(q int) *Circuit {
	c.check(q)
	c.Gates = append(c.Gates, Gate{Kind: KindMeasure, Name: "measure", Target: q})
	return c
}

// CountKind returns how many gates have the given name.
func (c *Circuit) CountKind(name string) int {
	n := 0
	for _, g := range c.Gates {
		if g.Name == name {
			n++
		}
	}
	return n
}

// MaxTarget returns the largest qubit index any gate touches.
func (c *Circuit) MaxTarget() int {
	m := 0
	for _, g := range c.Gates {
		if g.Target > m {
			m = g.Target
		}
		for _, q := range g.Controls {
			if q > m {
				m = q
			}
		}
	}
	return m
}

// TwoQubitGateCount returns how many gates have at least one control.
func (c *Circuit) TwoQubitGateCount() int {
	n := 0
	for _, g := range c.Gates {
		if len(g.Controls) > 0 {
			n++
		}
	}
	return n
}

// ParallelDepth returns the circuit depth counted in parallel layers:
// gates touching disjoint qubits share a layer (the hardware notion of
// depth, vs the paper's gate count).
func (c *Circuit) ParallelDepth() int {
	ready := make([]int, c.N) // earliest free layer per qubit
	depth := 0
	for _, g := range c.Gates {
		layer := ready[g.Target]
		for _, ctl := range g.Controls {
			if ready[ctl] > layer {
				layer = ready[ctl]
			}
		}
		layer++
		ready[g.Target] = layer
		for _, ctl := range g.Controls {
			ready[ctl] = layer
		}
		if layer > depth {
			depth = layer
		}
	}
	return depth
}

// GateHistogram returns gate counts by name.
func (c *Circuit) GateHistogram() map[string]int {
	h := make(map[string]int)
	for _, g := range c.Gates {
		h[g.Name]++
	}
	return h
}

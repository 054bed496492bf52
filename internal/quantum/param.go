package quantum

import (
	"encoding/binary"
	"fmt"
)

// Parameterized circuits: a circuit may carry symbolic rotation angles
// (Param payloads on gates) that are resolved to concrete unitaries by
// Bind. All bindings of one parametric circuit share a single shape —
// the same gate list up to matrix values — which is what lets the
// batched executor plan sweeps once per shape and run K parameter
// settings in lockstep.

// Param is a symbolic gate angle: θ = Scale·values[Index] + Shift,
// where values is the vector passed to Bind. The affine form covers
// the common variational idioms (QAOA's 2γ edge angles, parameter-shift
// offsets) without a full expression tree.
type Param struct {
	Index int
	Scale float64
	Shift float64
}

// P returns the parameter reading values[i] directly (scale 1, shift 0).
func P(i int) Param {
	if i < 0 {
		panic(fmt.Sprintf("quantum: negative parameter index %d", i))
	}
	return Param{Index: i, Scale: 1}
}

// Times returns the parameter with its scale multiplied by s.
func (p Param) Times(s float64) Param { p.Scale *= s; return p }

// Plus returns the parameter with d added to its shift.
func (p Param) Plus(d float64) Param { p.Shift += d; return p }

// Eval resolves the parameter against a binding vector.
func (p Param) Eval(values []float64) float64 {
	return float64(p.Scale*values[p.Index]) + p.Shift
}

// Parametric gate builders. The gate's U stays zero until Bind.

// PRX appends a parametric exp(-iθX/2) rotation.
func (c *Circuit) PRX(q int, p Param) *Circuit { return c.applyParam("rx", q, p) }

// PRY appends a parametric exp(-iθY/2) rotation.
func (c *Circuit) PRY(q int, p Param) *Circuit { return c.applyParam("ry", q, p) }

// PRZ appends a parametric exp(-iθZ/2) rotation.
func (c *Circuit) PRZ(q int, p Param) *Circuit { return c.applyParam("rz", q, p) }

// PPhase appends a parametric phase gate diag(1, e^{iθ}).
func (c *Circuit) PPhase(q int, p Param) *Circuit { return c.applyParam("p", q, p) }

func (c *Circuit) applyParam(name string, q int, p Param) *Circuit {
	c.check(q)
	if p.Index < 0 {
		panic(fmt.Sprintf("quantum: negative parameter index %d", p.Index))
	}
	pp := p
	c.Gates = append(c.Gates, Gate{Name: name, Target: q, Par: &pp})
	return c
}

// paramMatrix materializes the unitary of a parametric gate at angle
// theta. The name set matches the parametric builders.
func paramMatrix(name string, theta float64) (Matrix2, error) {
	switch name {
	case "rx":
		return RX(theta), nil
	case "ry":
		return RY(theta), nil
	case "rz":
		return RZ(theta), nil
	case "p":
		return Phase(theta), nil
	}
	return Matrix2{}, fmt.Errorf("quantum: no parametric gate named %q", name)
}

// Parametric reports whether any gate still carries an unbound Param.
func (c *Circuit) Parametric() bool {
	for i := range c.Gates {
		if c.Gates[i].Par != nil {
			return true
		}
	}
	return false
}

// NumParams returns the length a binding vector must have: one slot per
// distinct parameter index, 1 + the largest index referenced.
func (c *Circuit) NumParams() int {
	n := 0
	for i := range c.Gates {
		if p := c.Gates[i].Par; p != nil && p.Index+1 > n {
			n = p.Index + 1
		}
	}
	return n
}

// Bind materializes every parametric gate at the given parameter
// values, returning a fully concrete circuit (Par == nil everywhere).
// The input circuit is not modified. Binding the same circuit at
// different values yields circuits of identical shape (SameShape).
func (c *Circuit) Bind(values []float64) (*Circuit, error) {
	return c.bindShifted(values, -1, 0)
}

// BindShift binds like Bind, except the single parametric gate at index
// gi gets delta added to its resolved angle — the parameter-shift-rule
// primitive: the ±π/2 evaluations of one gate occurrence.
func (c *Circuit) BindShift(values []float64, gi int, delta float64) (*Circuit, error) {
	if gi < 0 || gi >= len(c.Gates) || c.Gates[gi].Par == nil {
		return nil, fmt.Errorf("quantum: gate %d is not parametric", gi)
	}
	return c.bindShifted(values, gi, delta)
}

func (c *Circuit) bindShifted(values []float64, shiftGate int, delta float64) (*Circuit, error) {
	if np := c.NumParams(); len(values) < np {
		return nil, fmt.Errorf("quantum: circuit references %d parameters, binding has %d", np, len(values))
	}
	out := &Circuit{N: c.N, Gates: make([]Gate, len(c.Gates))}
	for i, g := range c.Gates {
		if g.Par != nil {
			theta := g.Par.Eval(values)
			if i == shiftGate {
				theta += delta
			}
			u, err := paramMatrix(g.Name, theta)
			if err != nil {
				return nil, err
			}
			g.U = u
			g.Par = nil
		}
		out.Gates[i] = g
	}
	return out, nil
}

// ParamOccurrence is one parametric gate in a circuit: gate index,
// which parameter it reads, and the scale dθgate/dvalues[Index]. The
// parameter-shift rule differentiates per occurrence — a parameter
// reused across many gates (QAOA's γ on every edge) contributes one
// shifted pair per occurrence, chain-ruled by Scale.
type ParamOccurrence struct {
	Gate  int
	Index int
	Scale float64
}

// ParamOccurrences lists every parametric gate in circuit order.
func (c *Circuit) ParamOccurrences() []ParamOccurrence {
	var occ []ParamOccurrence
	for i := range c.Gates {
		if p := c.Gates[i].Par; p != nil {
			occ = append(occ, ParamOccurrence{Gate: i, Index: p.Index, Scale: p.Scale})
		}
	}
	return occ
}

// ShapeSignature returns a byte signature of the circuit's shape: the
// width and, per gate, kind, target, and controls — everything the
// sweep planner reads, and nothing it doesn't (no matrix values, no
// parameter bindings). Two bindings of one parametric circuit share a
// signature, so a sweep plan computed for one is valid for all.
func ShapeSignature(c *Circuit) string {
	b := make([]byte, 0, 16+8*len(c.Gates))
	b = binary.AppendUvarint(b, uint64(c.N))
	for i := range c.Gates {
		g := &c.Gates[i]
		b = append(b, byte(g.Kind))
		b = binary.AppendUvarint(b, uint64(g.Target))
		b = binary.AppendUvarint(b, uint64(len(g.Controls)))
		for _, q := range g.Controls {
			b = binary.AppendUvarint(b, uint64(q))
		}
	}
	return string(b)
}

// SameShape reports whether two circuits have identical shape — the
// lockstep-batching precondition.
func SameShape(a, b *Circuit) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.N == b.N && len(a.Gates) == len(b.Gates) && ShapeSignature(a) == ShapeSignature(b)
}

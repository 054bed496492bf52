package distrib

import (
	"encoding/binary"
	"fmt"
	"math"

	"qcsim/internal/quantum"
)

// Exact circuit wire form. The qc text format is lossy for rotation
// gates — it recovers angles from the matrix through Atan2 and
// rebuilds the matrix from the recovered angle, which can move the
// last ulp — so distributed runs ship gates in a fixed-width binary
// form instead: every matrix entry travels as raw float64 bits and the
// worker executes the coordinator's exact unitaries. This is what
// keeps TCP-transport amplitudes byte-identical to in-process runs.
// Custom (unnamed) matrix gates ship fine; parametric circuits must be
// bound first, exactly as the engine itself requires.

// encodeCircuit renders c in the exact wire form.
func encodeCircuit(c *quantum.Circuit) ([]byte, error) {
	var buf []byte
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u64(uint64(c.N))
	u64(uint64(len(c.Gates)))
	for i, g := range c.Gates {
		if g.Par != nil {
			return nil, fmt.Errorf("distrib: gate %d (%s) has an unbound parameter; Bind the circuit first", i, g.Name)
		}
		buf = append(buf, byte(g.Kind))
		u64(uint64(len(g.Name)))
		buf = append(buf, g.Name...)
		u64(uint64(g.Target))
		u64(uint64(len(g.Controls)))
		for _, q := range g.Controls {
			u64(uint64(q))
		}
		for r := 0; r < 2; r++ {
			for col := 0; col < 2; col++ {
				u64(math.Float64bits(real(g.U[r][col])))
				u64(math.Float64bits(imag(g.U[r][col])))
			}
		}
	}
	return buf, nil
}

// decodeCircuit parses the exact wire form. It accepts only what
// encodeCircuit can produce from a well-formed circuit — no trailing
// bytes, every gate passing quantum.Circuit.Validate — so whatever it
// returns re-encodes to the same bytes and is safe to run.
func decodeCircuit(b []byte) (*quantum.Circuit, error) {
	bad := func(what string) error { return fmt.Errorf("distrib: truncated circuit wire form (%s)", what) }
	next := func() (uint64, bool) {
		if len(b) < 8 {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v, true
	}
	n, ok := next()
	if !ok {
		return nil, bad("qubits")
	}
	ng, ok := next()
	if !ok || ng > uint64(len(b)) { // every gate takes well over one byte
		return nil, bad("gate count")
	}
	c := &quantum.Circuit{N: int(n), Gates: make([]quantum.Gate, 0, ng)}
	for i := uint64(0); i < ng; i++ {
		if len(b) < 1 {
			return nil, bad("gate kind")
		}
		g := quantum.Gate{Kind: quantum.GateKind(b[0])}
		b = b[1:]
		nameLen, ok := next()
		if !ok || nameLen > uint64(len(b)) {
			return nil, bad("gate name")
		}
		g.Name = string(b[:nameLen])
		b = b[nameLen:]
		tgt, ok := next()
		if !ok {
			return nil, bad("gate target")
		}
		g.Target = int(tgt)
		nc, ok := next()
		if !ok || nc > uint64(len(b))/8 {
			return nil, bad("control count")
		}
		for j := uint64(0); j < nc; j++ {
			q, ok := next()
			if !ok {
				return nil, bad("control qubit")
			}
			g.Controls = append(g.Controls, int(q))
		}
		for r := 0; r < 2; r++ {
			for col := 0; col < 2; col++ {
				re, ok1 := next()
				im, ok2 := next()
				if !ok1 || !ok2 {
					return nil, bad("matrix entry")
				}
				g.U[r][col] = complex(math.Float64frombits(re), math.Float64frombits(im))
			}
		}
		c.Gates = append(c.Gates, g)
	}
	if len(b) > 0 {
		return nil, fmt.Errorf("distrib: %d trailing bytes after the circuit wire form", len(b))
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("distrib: circuit wire form: %w", err)
	}
	return c, nil
}

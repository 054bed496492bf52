package distrib

import (
	"bytes"
	"testing"

	"qcsim/internal/quantum"
)

// wireSeeds are the encodings of a few well-formed circuits: plain,
// controlled (one and two controls), rotated and measured.
func wireSeeds(t testing.TB) [][]byte {
	measured := quantum.GHZ(4)
	measured.Measure(2).Measure(0)
	var out [][]byte
	for _, c := range []*quantum.Circuit{
		quantum.QFT(5, 1),
		quantum.GHZ(6),
		quantum.NewCircuit(4).Toffoli(0, 1, 3).CPhase(2, 0, 0.3).RY(1, 1.1),
		measured,
	} {
		b, err := encodeCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzDecodeCircuit: decoding arbitrary bytes never panics, and what it
// accepts is a well-formed circuit that re-encodes to the very bytes it
// came from.
func FuzzDecodeCircuit(f *testing.F) {
	for _, b := range wireSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := decodeCircuit(b)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("decoded a malformed circuit: %v", err)
		}
		again, err := encodeCircuit(c)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("re-encoding differs: %d bytes in, %d out", len(b), len(again))
		}
	})
}

// TestDecodeCircuitRejects: trailing bytes and gates the engine must
// not run are decode errors, not circuits.
func TestDecodeCircuitRejects(t *testing.T) {
	h := func(target int, controls ...int) quantum.Gate {
		return quantum.Gate{Name: "h", Target: target, Controls: controls, U: quantum.MatH}
	}
	seed := wireSeeds(t)[0]
	cases := map[string][]byte{
		"trailing-byte": append(append([]byte(nil), seed...), 0),
	}
	for name, g := range map[string]quantum.Gate{
		"target-past-register": h(6),
		"target-negative":      h(-1),
		"control-is-target":    h(2, 2),
		"unknown-kind":         {Kind: 7, Name: "h", Target: 1, U: quantum.MatH},
	} {
		b, err := encodeCircuit(&quantum.Circuit{N: 6, Gates: []quantum.Gate{h(0), g}})
		if err != nil {
			t.Fatal(err)
		}
		cases[name] = b
	}
	for name, b := range cases {
		if c, err := decodeCircuit(b); err == nil {
			t.Errorf("%s: decoded %d gates, want an error", name, len(c.Gates))
		}
	}
}

package quantum

import (
	"math"
	"testing"
)

func TestGroverQubitsArithmetic(t *testing.T) {
	// The paper's Grover sizes: 61, 59, 47 total qubits.
	cases := map[int]int{32: 61, 31: 59, 25: 47, 3: 3, 4: 5}
	for s, total := range cases {
		if got := GroverQubits(s); got != total {
			t.Errorf("GroverQubits(%d) = %d, want %d", s, got, total)
		}
	}
	for _, total := range []int{61, 59, 47} {
		s, err := GroverSearchQubits(total)
		if err != nil {
			t.Fatal(err)
		}
		if GroverQubits(s) != total {
			t.Errorf("roundtrip failed for %d", total)
		}
	}
	if _, err := GroverSearchQubits(48); err == nil {
		t.Error("even total accepted")
	}
}

func TestGroverAmplifiesMarkedState(t *testing.T) {
	s := 5 // 7 qubits total
	marked := uint64(19)
	iters := GroverOptimalIterations(s)
	c := Grover(s, marked, iters)
	st := NewState(c.N)
	st.ApplyCircuit(c)
	// Probability of reading `marked` on the search register (ancillas
	// must all be |0⟩ after uncomputation).
	var pMarked, pAncillaDirty float64
	for i := range st.Amps {
		p := st.Probability(uint64(i))
		if uint64(i)>>uint(s) != 0 {
			pAncillaDirty += p
		} else if uint64(i) == marked {
			pMarked += p
		}
	}
	if pAncillaDirty > 1e-9 {
		t.Fatalf("ancillas not uncomputed: leaked %v", pAncillaDirty)
	}
	if pMarked < 0.9 {
		t.Fatalf("P(marked) = %v after %d iterations", pMarked, iters)
	}
}

func TestGroverOracleGateSet(t *testing.T) {
	// §5.3: the oracle consists of X and Toffoli gates (plus the
	// Hadamards and the CCZ phase kernel).
	c := Grover(8, 0xAB, 1)
	allowed := map[string]bool{"h": true, "x": true, "ccx": true, "ccz": true}
	for _, g := range c.Gates {
		if !allowed[g.Name] {
			t.Fatalf("unexpected gate %q in Grover circuit", g.Name)
		}
	}
	if c.CountKind("ccx") == 0 {
		t.Fatal("no Toffoli ladder present")
	}
}

func TestGroverGateCountMatchesPaperScale(t *testing.T) {
	// Paper Table 2: 61-qubit Grover (s=32) has 314 gates for one
	// iteration; our construction should land within ~15%.
	c := Grover(32, 0x5A5A5A5A, 1)
	if c.N != 61 {
		t.Fatalf("total qubits = %d", c.N)
	}
	if d := c.Depth(); d < 260 || d > 370 {
		t.Fatalf("gate count %d far from the paper's 314", d)
	}
}

func TestGroverValidation(t *testing.T) {
	mustPanic(t, func() { Grover(2, 0, 1) })
	mustPanic(t, func() { Grover(4, 16, 1) }) // marked out of range
}

func TestSupremacyStructure(t *testing.T) {
	rows, cols, cycles := 4, 4, 11
	c := Supremacy(rows, cols, cycles, 1)
	if c.N != 16 {
		t.Fatalf("N = %d", c.N)
	}
	if c.CountKind("h") != 16 {
		t.Fatalf("initial H count = %d", c.CountKind("h"))
	}
	if c.CountKind("cz") == 0 {
		t.Fatal("no CZ layers")
	}
	// Single-qubit supremacy gates restricted to {T, X^1/2, Y^1/2}.
	for _, g := range c.Gates {
		switch g.Name {
		case "h", "cz", "t", "sx", "sy":
		default:
			t.Fatalf("unexpected gate %q", g.Name)
		}
	}
	// First single-qubit gate on any qubit after the H layer is a T.
	firstSingle := map[int]string{}
	for _, g := range c.Gates[16:] {
		if g.Name != "cz" && g.Name != "h" {
			if _, ok := firstSingle[g.Target]; !ok {
				firstSingle[g.Target] = g.Name
			}
		}
	}
	for q, name := range firstSingle {
		if name != "t" {
			t.Fatalf("qubit %d: first single-qubit gate is %q, want t", q, name)
		}
	}
}

func TestSupremacyDeterministic(t *testing.T) {
	a := Supremacy(3, 3, 8, 5)
	b := Supremacy(3, 3, 8, 5)
	if len(a.Gates) != len(b.Gates) {
		t.Fatal("nondeterministic gate count")
	}
	for i := range a.Gates {
		if a.Gates[i].String() != b.Gates[i].String() {
			t.Fatalf("gate %d differs", i)
		}
	}
	c := Supremacy(3, 3, 8, 6)
	same := len(a.Gates) == len(c.Gates)
	if same {
		for i := range a.Gates {
			if a.Gates[i].String() != c.Gates[i].String() {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical circuits")
	}
}

func TestSupremacyNoImmediateRepeat(t *testing.T) {
	c := Supremacy(4, 5, 30, 2)
	last := map[int]string{}
	for _, g := range c.Gates {
		switch g.Name {
		case "sx", "sy", "t":
			if last[g.Target] == g.Name && g.Name != "t" || (g.Name == "t" && last[g.Target] == "t") {
				t.Fatalf("qubit %d received %q twice in a row", g.Target, g.Name)
			}
			last[g.Target] = g.Name
		}
	}
}

func TestRandomRegularGraph(t *testing.T) {
	n, d := 12, 4
	edges := RandomRegularGraph(n, d, 3)
	if len(edges) != n*d/2 {
		t.Fatalf("edge count = %d", len(edges))
	}
	deg := make([]int, n)
	seen := map[[2]int]bool{}
	for _, e := range edges {
		if e.U == e.V {
			t.Fatal("self loop")
		}
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			t.Fatal("duplicate edge")
		}
		seen[[2]int{a, b}] = true
		deg[e.U]++
		deg[e.V]++
	}
	for v, dd := range deg {
		if dd != d {
			t.Fatalf("vertex %d degree %d", v, dd)
		}
	}
	mustPanic(t, func() { RandomRegularGraph(5, 3, 1) }) // odd n·d
}

func TestQAOAStructure(t *testing.T) {
	n, p := 8, 2
	c := QAOA(n, p, 4)
	if c.N != n {
		t.Fatalf("N = %d", c.N)
	}
	if c.CountKind("h") != n {
		t.Fatalf("H count = %d", c.CountKind("h"))
	}
	// Per round: 2 CNOTs + 1 RZ per edge (16 edges), n RX mixers.
	wantCNOT := 2 * 16 * p
	if got := c.CountKind("cx"); got != wantCNOT {
		t.Fatalf("CNOT count = %d, want %d", got, wantCNOT)
	}
	if got := c.CountKind("rx"); got != n*p {
		t.Fatalf("RX count = %d, want %d", got, n*p)
	}
	st := NewState(n)
	st.ApplyCircuit(c)
	if math.Abs(st.Norm()-1) > 1e-9 {
		t.Fatalf("norm = %v", st.Norm())
	}
}

func TestQFTUniformMagnitudes(t *testing.T) {
	// QFT of a computational basis state has all 2^n amplitudes at
	// magnitude 2^{-n/2}.
	n := 5
	c := QFT(n, 99)
	st := NewState(n)
	st.ApplyCircuit(c)
	want := math.Exp2(-float64(n))
	for i := range st.Amps {
		if math.Abs(st.Probability(uint64(i))-want) > 1e-9 {
			t.Fatalf("P(%d) = %v, want %v", i, st.Probability(uint64(i)), want)
		}
	}
}

func TestQFTOnZeroStateIsUniformSuperposition(t *testing.T) {
	n := 4
	c := QFT(n, -1) // no state preparation
	st := NewState(n)
	st.ApplyCircuit(c)
	for i := range st.Amps {
		if math.Abs(real(st.Amps[i])-1/math.Sqrt(16)) > 1e-9 || math.Abs(imag(st.Amps[i])) > 1e-9 {
			t.Fatalf("QFT|0⟩ amp[%d] = %v", i, st.Amps[i])
		}
	}
}

func TestQFTInverseRecovers(t *testing.T) {
	// Applying QFT then its dagger (reverse gates, conjugated matrices)
	// returns the input state.
	n := 4
	fwd := QFT(n, 13)
	st := NewState(n)
	st.ApplyCircuit(fwd)
	// Build the inverse by reversing and daggering only the QFT part
	// (skip the X preparation prefix).
	prep := 0
	for _, g := range fwd.Gates {
		if g.Name == "x" && len(g.Controls) == 0 {
			prep++
		} else {
			break
		}
	}
	inv := NewCircuit(n)
	for i := len(fwd.Gates) - 1; i >= prep; i-- {
		g := fwd.Gates[i]
		inv.Gates = append(inv.Gates, Gate{Name: g.Name + "†", Target: g.Target, Controls: g.Controls, U: g.U.Dagger()})
	}
	st.ApplyCircuit(inv)
	// Expect the prepared basis state.
	prepState := NewState(n)
	for _, g := range fwd.Gates[:prep] {
		prepState.ApplyGate(g)
	}
	if f := Fidelity(st, prepState); math.Abs(f-1) > 1e-9 {
		t.Fatalf("QFT†QFT fidelity = %v", f)
	}
}

func TestHadamardAll(t *testing.T) {
	c := HadamardAll(6)
	if c.Depth() != 6 || c.CountKind("h") != 6 {
		t.Fatalf("depth %d", c.Depth())
	}
}

func TestRandomCircuitProperties(t *testing.T) {
	c := RandomCircuit(7, 150, 8)
	if c.Depth() < 150 {
		t.Fatalf("depth %d < requested", c.Depth())
	}
	if c.MaxTarget() >= 7 {
		t.Fatalf("qubit out of range")
	}
	st := NewState(7)
	st.ApplyCircuit(c)
	if math.Abs(st.Norm()-1) > 1e-9 {
		t.Fatalf("norm = %v", st.Norm())
	}
}

func TestCircuitValidation(t *testing.T) {
	mustPanic(t, func() { NewCircuit(0) })
	mustPanic(t, func() { NewCircuit(2).H(5) })
	mustPanic(t, func() { NewCircuit(2).CNOT(0, 0) })
	mustPanic(t, func() { NewCircuit(3).Toffoli(1, 1, 2) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func TestParallelDepth(t *testing.T) {
	c := NewCircuit(4).H(0).H(1).H(2).H(3) // one layer
	if d := c.ParallelDepth(); d != 1 {
		t.Fatalf("H layer depth = %d", d)
	}
	c2 := GHZ(5) // CNOT chain serializes: H + 4 CNOTs = depth 5
	if d := c2.ParallelDepth(); d != 5 {
		t.Fatalf("GHZ depth = %d", d)
	}
	c3 := NewCircuit(2)
	if d := c3.ParallelDepth(); d != 0 {
		t.Fatalf("empty depth = %d", d)
	}
}

func TestTwoQubitGateCountAndHistogram(t *testing.T) {
	c := NewCircuit(3).H(0).CNOT(0, 1).CZ(1, 2).Toffoli(0, 1, 2).T(2)
	if n := c.TwoQubitGateCount(); n != 3 {
		t.Fatalf("two-qubit count = %d", n)
	}
	h := c.GateHistogram()
	if h["h"] != 1 || h["cx"] != 1 || h["ccx"] != 1 || h["t"] != 1 {
		t.Fatalf("histogram = %v", h)
	}
}

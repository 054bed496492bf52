package quantum

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// fixedAngleQAOA is the fixed-angle QAOA builder as it was written
// before QAOA became a binding of QAOAAnsatz: angles drawn from the
// seeded stream round by round, gates appended directly.
func fixedAngleQAOA(n, p int, seed int64) *Circuit {
	edges := RandomRegularGraph(n, 4, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	c := NewCircuit(n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for round := 0; round < p; round++ {
		gamma := rng.Float64() * math.Pi
		beta := rng.Float64() * math.Pi
		for _, e := range edges {
			c.CNOT(e.U, e.V)
			c.RZ(e.V, 2*gamma)
			c.CNOT(e.U, e.V)
		}
		for q := 0; q < n; q++ {
			c.RX(q, 2*beta)
		}
	}
	return c
}

func TestBindReproducesQAOA(t *testing.T) {
	for _, tc := range []struct {
		n, p int
		seed int64
	}{{8, 2, 5}, {6, 1, 3}, {10, 2, 2020}, {12, 3, 7}, {5, 4, 0}} {
		ansatz := QAOAAnsatz(tc.n, tc.p, tc.seed)
		if !ansatz.Parametric() {
			t.Fatal("ansatz not parametric")
		}
		if got := ansatz.NumParams(); got != 2*tc.p {
			t.Fatalf("NumParams = %d, want %d", got, 2*tc.p)
		}
		bound, err := ansatz.Bind(QAOAAngles(tc.p, tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		if bound.Parametric() {
			t.Fatal("bound circuit still parametric")
		}
		if want := fixedAngleQAOA(tc.n, tc.p, tc.seed); !reflect.DeepEqual(bound, want) {
			t.Fatalf("QAOAAnsatz(%d, %d, %d) bound at QAOAAngles differs from the fixed-angle builder", tc.n, tc.p, tc.seed)
		}
		// The source ansatz must be untouched by Bind.
		if !ansatz.Parametric() {
			t.Fatal("Bind mutated the ansatz")
		}
	}
}

func TestBindShift(t *testing.T) {
	ansatz := QAOAAnsatz(6, 1, 3)
	values := QAOAAngles(1, 3)
	base, err := ansatz.Bind(values)
	if err != nil {
		t.Fatal(err)
	}
	occs := ansatz.ParamOccurrences()
	if len(occs) == 0 {
		t.Fatal("no parameter occurrences")
	}
	occ := occs[0]
	shifted, err := ansatz.BindShift(values, occ.Gate, math.Pi/2)
	if err != nil {
		t.Fatal(err)
	}
	if !SameShape(shifted, base) {
		t.Fatal("shifted binding changed the shape")
	}
	diff := 0
	for i := range base.Gates {
		if base.Gates[i].U != shifted.Gates[i].U {
			diff++
			if i != occ.Gate {
				t.Fatalf("gate %d changed, expected only %d", i, occ.Gate)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d gates changed, want exactly 1", diff)
	}
	// The shifted gate sees θ + Scale·π/2... no: BindShift adds delta to
	// the underlying PARAMETER angle occurrence, i.e. θ' = Scale·v+Shift
	// with the gate's own Shift bumped by delta — verify against Eval.
	pp := ansatz.Gates[occ.Gate].Par
	want, err := paramMatrix(ansatz.Gates[occ.Gate].Name, pp.Eval(values)+math.Pi/2)
	if err != nil {
		t.Fatal(err)
	}
	if shifted.Gates[occ.Gate].U != want {
		t.Fatalf("shifted gate U mismatch")
	}
	if _, err := ansatz.BindShift(values, 0, 1); err == nil {
		t.Fatal("BindShift on a non-parametric gate index succeeded")
	}
}

func TestBindShortVector(t *testing.T) {
	ansatz := VQEAnsatz(4, 2)
	if _, err := ansatz.Bind(make([]float64, ansatz.NumParams()-1)); err == nil ||
		!strings.Contains(err.Error(), "parameter") {
		t.Fatalf("short binding accepted: %v", err)
	}
}

func TestParamOccurrences(t *testing.T) {
	const n, p = 6, 2
	ansatz := QAOAAnsatz(n, p, 9)
	occs := ansatz.ParamOccurrences()
	// Per round: one γ occurrence per edge, one β occurrence per qubit.
	edges := len(RandomRegularGraph(n, 4, 9))
	if want := p * (edges + n); len(occs) != want {
		t.Fatalf("%d occurrences, want %d", len(occs), want)
	}
	last := -1
	for _, o := range occs {
		if o.Gate <= last {
			t.Fatalf("occurrences out of gate order: %+v", occs)
		}
		last = o.Gate
		if ansatz.Gates[o.Gate].Par == nil {
			t.Fatalf("occurrence at non-parametric gate %d", o.Gate)
		}
		if o.Scale != 2 {
			t.Fatalf("QAOA occurrence scale = %v, want 2", o.Scale)
		}
	}
}

func TestShapeSignatureStableAcrossBindings(t *testing.T) {
	ansatz := QAOAAnsatz(6, 1, 7)
	a, err := ansatz.Bind(QAOAAngles(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ansatz.Bind(QAOAAngles(1, 8))
	if err != nil {
		t.Fatal(err)
	}
	if ShapeSignature(a) != ShapeSignature(b) {
		t.Fatal("two bindings of one ansatz have different shape signatures")
	}
	if !SameShape(a, ansatz) {
		t.Fatal("binding changed the shape vs the ansatz itself")
	}
	if SameShape(a, NewCircuit(6).H(0)) {
		t.Fatal("different circuits report the same shape")
	}
}

// TestFusionBarrierOnParametricGates: an unbound parametric gate has no
// usable U, so fusion must not merge across (or into) it — otherwise two
// bindings of one shape could fuse differently.
func TestFusionBarrierOnParametricGates(t *testing.T) {
	c := NewCircuit(2).H(0)
	c.PRX(0, P(0))
	c.H(0)
	fused := FuseSingleQubitGates(c)
	if len(fused.Gates) != 3 {
		t.Fatalf("fusion crossed a parametric barrier: %d gates", len(fused.Gates))
	}
	// Bound variants of one shape must fuse identically (structure-only
	// decisions): check gate counts agree across two bindings.
	ansatz := QAOAAnsatz(6, 1, 4)
	a, _ := ansatz.Bind(QAOAAngles(1, 4))
	b, _ := ansatz.Bind(QAOAAngles(1, 5))
	fa, fb := FuseSingleQubitGates(a), FuseSingleQubitGates(b)
	if !SameShape(fa, fb) {
		t.Fatal("two bindings fused into different shapes")
	}
}

func TestVQEAnsatzShape(t *testing.T) {
	const n, layers = 5, 3
	c := VQEAnsatz(n, layers)
	if got, want := c.NumParams(), (layers+1)*n; got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
	// layers·(n rotations + n-1 CZs) + final n rotations.
	if got, want := len(c.Gates), layers*(n+n-1)+n; got != want {
		t.Fatalf("%d gates, want %d", got, want)
	}
	bound, err := c.Bind(make([]float64, c.NumParams()))
	if err != nil {
		t.Fatal(err)
	}
	// RY(0) is the identity: binding at zero must yield identity U on
	// every rotation.
	for i, g := range bound.Gates {
		if len(g.Controls) == 0 && g.U != RY(0) {
			t.Fatalf("gate %d: zero binding gave %v", i, g.U)
		}
	}
}

func TestParamEval(t *testing.T) {
	p := P(1).Times(3).Plus(0.5)
	if got := p.Eval([]float64{0, 2}); got != 6.5 {
		t.Fatalf("Eval = %v, want 6.5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("P(-1) did not panic")
		}
	}()
	P(-1)
}

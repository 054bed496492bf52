package quantum

import (
	"encoding/hex"
	"math"
	"math/cmplx"
	"strings"
	"testing"
)

func TestStandardGatesUnitary(t *testing.T) {
	gates := map[string]Matrix2{
		"I": MatI, "X": MatX, "Y": MatY, "Z": MatZ, "H": MatH,
		"S": MatS, "Sdg": MatSdg, "T": MatT, "Tdg": MatTdg,
		"SqrtX": MatSqrtX, "SqrtY": MatSqrtY,
	}
	for name, m := range gates {
		if !m.IsUnitary(1e-12) {
			t.Errorf("%s is not unitary", name)
		}
	}
	for _, theta := range []float64{0, 0.1, math.Pi / 3, math.Pi, 5} {
		for name, m := range map[string]Matrix2{
			"RX": RX(theta), "RY": RY(theta), "RZ": RZ(theta), "Phase": Phase(theta),
		} {
			if !m.IsUnitary(1e-12) {
				t.Errorf("%s(%v) is not unitary", name, theta)
			}
		}
	}
}

func TestSqrtGatesSquareCorrectly(t *testing.T) {
	x2 := MatSqrtX.Mul(MatSqrtX)
	y2 := MatSqrtY.Mul(MatSqrtY)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(x2[i][j]-MatX[i][j]) > 1e-12 {
				t.Fatalf("SqrtX² ≠ X at %d,%d: %v", i, j, x2[i][j])
			}
			if cmplx.Abs(y2[i][j]-MatY[i][j]) > 1e-12 {
				t.Fatalf("SqrtY² ≠ Y at %d,%d: %v", i, j, y2[i][j])
			}
		}
	}
}

func TestTSquaredIsS(t *testing.T) {
	t2 := MatT.Mul(MatT)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if cmplx.Abs(t2[i][j]-MatS[i][j]) > 1e-12 {
				t.Fatalf("T² ≠ S")
			}
		}
	}
}

func TestDaggerInverts(t *testing.T) {
	m := RX(1.234).Mul(RZ(0.7))
	p := m.Mul(m.Dagger())
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := complex(0, 0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(p[i][j]-want) > 1e-12 {
				t.Fatalf("M·M† ≠ I")
			}
		}
	}
}

func TestIsUnitaryRejectsNonUnitary(t *testing.T) {
	bad := Matrix2{{1, 1}, {0, 1}}
	if bad.IsUnitary(1e-9) {
		t.Fatal("shear matrix accepted as unitary")
	}
}

func TestGateString(t *testing.T) {
	g := Gate{Name: "h", Target: 3}
	if g.String() != "h(3)" {
		t.Fatalf("String = %q", g.String())
	}
	cx := Gate{Name: "cx", Target: 1, Controls: []int{0}}
	if cx.String() != "cx([0];1)" {
		t.Fatalf("String = %q", cx.String())
	}
	m := Gate{Kind: KindMeasure, Target: 2}
	if m.String() != "measure(2)" {
		t.Fatalf("String = %q", m.String())
	}
}

// TestGateSignatureBytes pins Signature's bytes: the kind, the target
// and each control as four little-endian bytes, ';', then the matrix
// entries' real and imaginary float64 bits, little-endian. The cache keys
// a pass by these bytes, so a change to them changes every key.
func TestGateSignatureBytes(t *testing.T) {
	for _, tc := range []struct {
		g    Gate
		want string
	}{
		{Gate{Name: "ccx", Target: 5, Controls: []int{0, 300}, U: MatX},
			"00" + "05000000" + "00000000" + "2c010000" + "3b" +
				"0000000000000000" + "0000000000000000" + "000000000000f03f" + "0000000000000000" +
				"000000000000f03f" + "0000000000000000" + "0000000000000000" + "0000000000000000"},
		{Gate{Name: "rz", Target: 2, U: RZ(0.7)},
			"00" + "02000000" + "3b" +
				"b7e50d5d570fee3f" + "8b0a39a509f2d5bf" + "0000000000000000" + "0000000000000000" +
				"0000000000000000" + "0000000000000000" + "b7e50d5d570fee3f" + "8b0a39a509f2d53f"},
		{Gate{Kind: KindMeasure, Target: 3},
			"01" + "03000000" + "3b" + strings.Repeat("00", 64)},
	} {
		if got := hex.EncodeToString([]byte(tc.g.Signature())); got != tc.want {
			t.Errorf("%v: signature %s, want %s", tc.g, got, tc.want)
		}
	}
}

func TestGateSignatureDistinguishes(t *testing.T) {
	a := Gate{Name: "h", Target: 0, U: MatH}.Signature()
	b := Gate{Name: "h", Target: 1, U: MatH}.Signature()
	c := Gate{Name: "x", Target: 0, U: MatX}.Signature()
	d := Gate{Name: "cx", Target: 0, Controls: []int{1}, U: MatX}.Signature()
	sigs := map[string]bool{a: true, b: true, c: true, d: true}
	if len(sigs) != 4 {
		t.Fatalf("signatures collide: %d distinct of 4", len(sigs))
	}
	if a != (Gate{Name: "h", Target: 0, U: MatH}).Signature() {
		t.Fatal("signature not deterministic")
	}
}

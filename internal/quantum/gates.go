// Package quantum provides the circuit substrate of the reproduction:
// the gate and circuit IR shared by the compressed simulator and the
// dense reference simulator, the standard gate matrices, and generators
// for every benchmark family the paper evaluates (Grover, Google random
// circuit sampling, QAOA, QFT, random circuits, Hadamard scaling).
package quantum

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
)

// Matrix2 is a 2×2 complex matrix in row-major order: the unitary U of
// the paper's Eq. 6/7.
type Matrix2 [2][2]complex128

// Standard single-qubit gate matrices.
var (
	MatI = Matrix2{{1, 0}, {0, 1}}
	MatX = Matrix2{{0, 1}, {1, 0}}
	MatY = Matrix2{{0, -1i}, {1i, 0}}
	MatZ = Matrix2{{1, 0}, {0, -1}}
	MatH = Matrix2{{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)}}
	MatS   = Matrix2{{1, 0}, {0, 1i}}
	MatSdg = Matrix2{{1, 0}, {0, -1i}}
	MatT   = Matrix2{{1, 0}, {0, cmplx.Exp(1i * math.Pi / 4)}}
	MatTdg = Matrix2{{1, 0}, {0, cmplx.Exp(-1i * math.Pi / 4)}}
	// MatSqrtX and MatSqrtY are the X^1/2 and Y^1/2 gates of the
	// supremacy circuits (Boixo et al. 2018).
	MatSqrtX = Matrix2{{0.5 + 0.5i, 0.5 - 0.5i}, {0.5 - 0.5i, 0.5 + 0.5i}}
	MatSqrtY = Matrix2{{0.5 + 0.5i, -0.5 - 0.5i}, {0.5 + 0.5i, 0.5 + 0.5i}}
)

// RX returns the rotation exp(-iθX/2).
func RX(theta float64) Matrix2 {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return Matrix2{{c, s}, {s, c}}
}

// RY returns the rotation exp(-iθY/2).
func RY(theta float64) Matrix2 {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return Matrix2{{c, -s}, {s, c}}
}

// RZ returns the rotation exp(-iθZ/2).
func RZ(theta float64) Matrix2 {
	return Matrix2{{cmplx.Exp(complex(0, -theta/2)), 0}, {0, cmplx.Exp(complex(0, theta/2))}}
}

// Phase returns the phase gate diag(1, e^{iθ}) used by the QFT ladder.
func Phase(theta float64) Matrix2 {
	return Matrix2{{1, 0}, {0, cmplx.Exp(complex(0, theta))}}
}

// CMul returns the complex product a·b with every real product rounded
// on its own, as Go's a*b computes it on amd64. The Go spec lets a
// compiler fuse x*y + z into one rounding unless the product is
// converted; arm64, ppc64le, s390x, riscv64 and loong64 do, so a plain
// a*b there differs from amd64 in the last bit. Every product that
// decides a stored bit is written this way, or as float64(x*y) for a
// real product, so each GOARCH computes the same bits; CI's
// cross-compile step fails on any fused multiply-add it finds.
func CMul(a, b complex128) complex128 {
	return complex(float64(real(a)*real(b))-float64(imag(a)*imag(b)),
		float64(real(a)*imag(b))+float64(imag(a)*real(b)))
}

// Mul returns the matrix product a·b.
func (a Matrix2) Mul(b Matrix2) Matrix2 {
	var r Matrix2
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			r[i][j] = CMul(a[i][0], b[0][j]) + CMul(a[i][1], b[1][j])
		}
	}
	return r
}

// Dagger returns the conjugate transpose.
func (a Matrix2) Dagger() Matrix2 {
	return Matrix2{
		{cmplx.Conj(a[0][0]), cmplx.Conj(a[1][0])},
		{cmplx.Conj(a[0][1]), cmplx.Conj(a[1][1])},
	}
}

// IsUnitary reports whether a†a = I within tol.
func (a Matrix2) IsUnitary(tol float64) bool {
	p := a.Dagger().Mul(a)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := complex(0, 0)
			if i == j {
				want = 1
			}
			if cmplx.Abs(p[i][j]-want) > tol {
				return false
			}
		}
	}
	return true
}

// GateKind distinguishes unitary applications from measurements.
type GateKind uint8

const (
	// KindUnitary applies a (possibly multi-controlled) single-qubit
	// unitary — the universal set of the paper's §2.1.
	KindUnitary GateKind = iota
	// KindMeasure measures the target qubit in the computational basis
	// and collapses the state (the intermediate-measurement capability
	// tensor-network simulators lack, paper §1).
	KindMeasure
)

// Gate is one operation of a circuit: a single-qubit unitary U applied to
// Target, conditioned on every qubit in Controls being |1⟩ (paper
// Eq. 7), or a measurement of Target.
//
// A gate with Par != nil is parametric: its angle is resolved from a
// parameter vector by Circuit.Bind, which materializes U. Until bound,
// U is meaningless (zero) and the executors reject the circuit.
type Gate struct {
	Kind     GateKind
	Name     string
	Target   int
	Controls []int
	U        Matrix2
	Par      *Param
}

// String renders the gate compactly, e.g. "ccx(3,7;9)".
func (g Gate) String() string {
	if g.Kind == KindMeasure {
		return fmt.Sprintf("measure(%d)", g.Target)
	}
	if len(g.Controls) == 0 {
		return fmt.Sprintf("%s(%d)", g.Name, g.Target)
	}
	return fmt.Sprintf("%s(%v;%d)", g.Name, g.Controls, g.Target)
}

// Signature returns a compact byte signature of the gate (name, target,
// controls, matrix bits) for the compressed block cache key (paper §3.4,
// the OP field of a cache line).
func (g Gate) Signature() string {
	return string(g.appendSignature(make([]byte, 0, g.signatureLen())))
}

// signatureLen is len(g.Signature()): the kind byte, the target and each
// control in four bytes, the separator, and eight matrix words.
func (g Gate) signatureLen() int { return 1 + 4 + 4*len(g.Controls) + 1 + 64 }

// appendSignature appends g.Signature() to b.
func (g Gate) appendSignature(b []byte) []byte {
	b = append(b, byte(g.Kind))
	b = appendInt(b, g.Target)
	for _, c := range g.Controls {
		b = appendInt(b, c)
	}
	b = append(b, ';')
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			b = appendFloat(b, real(g.U[i][j]))
			b = appendFloat(b, imag(g.U[i][j]))
		}
	}
	return b
}

func appendInt(b []byte, v int) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

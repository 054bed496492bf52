//go:build !amd64 || purego

package core

import "qcsim/internal/quantum"

// vectorKernels is false off amd64 and under the purego tag: the gate
// kernel runs its Go loops, and the vector functions below are never
// called.
var vectorKernels = false

func generalVec(lo, hi []float64, mask, t int, u *quantum.Matrix2) {
	panic("core: no vector kernels in this build")
}

func diagonalVec(lo, hi []float64, mask, t int, u *quantum.Matrix2) {
	panic("core: no vector kernels in this build")
}

func swapVec(lo, hi []float64, mask, t int, u *quantum.Matrix2) {
	panic("core: no vector kernels in this build")
}

func realImagVec(lo, hi []float64, mask, t int, u *quantum.Matrix2) {
	panic("core: no vector kernels in this build")
}

func unitVec(x []float64, t, step int, tab *[2][2]complex128) {
	panic("core: no vector kernels in this build")
}

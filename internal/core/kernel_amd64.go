//go:build !purego

package core

import "qcsim/internal/quantum"

// vectorKernels routes the gate kernel's four 2×2 class loops — general,
// diagonal, swap, real-imaginary — and a ZZ unit's multiply to the AVX2
// loops of kernel_amd64.s: set once, from the CPU, and otherwise
// changed only by tests, which run both paths. The pure-Go loops are
// the specification, and the vector loops produce their bits: the same
// IEEE multiplies, adds and subtracts in the same order, no fused
// multiply-add, and a short form's + 0 on every component. NaN payloads
// may differ.
var vectorKernels = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and POPCNT and the operating
// system saves the YMM registers.
func hasAVX2() bool {
	const (
		popcnt  = 1 << 23 // CPUID.1:ECX
		osxsave = 1 << 27
		avx     = 1 << 28
		avx2    = 1 << 5 // CPUID.(7,0):EBX
		xmmYmm  = 0b110  // XCR0: the OS saves SSE and AVX state
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(popcnt|osxsave|avx) != popcnt|osxsave|avx || xgetbv()&xmmYmm != xmmYmm {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// generalVec, diagonalVec, swapVec and realImagVec are kernelGo's loop
// of their class on every run from offset mask on: the runs of mask's
// lowest bit (the whole block for an empty mask), t the target's bit in
// a block, 0 for a block target. The short forms keep the +0 rule.
//
//go:noescape
func generalVec(lo, hi []float64, mask, t int, u *quantum.Matrix2)

//go:noescape
func diagonalVec(lo, hi []float64, mask, t int, u *quantum.Matrix2)

//go:noescape
func swapVec(lo, hi []float64, mask, t int, u *quantum.Matrix2)

//go:noescape
func realImagVec(lo, hi []float64, mask, t int, u *quantum.Matrix2)

// unitVec multiplies x's amplitudes, step of them (even) at a time, by
// tab[p], p the parity of the step's first offset's bits in t:
// amplitude o of the step by tab[p][o&1].
//
//go:noescape
func unitVec(x []float64, t, step int, tab *[2][2]complex128)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

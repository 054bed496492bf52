//go:build !purego

package core

import "qcsim/internal/quantum"

// vectorKernels routes the gate kernel's general 2×2 loop, its
// real-imaginary loop and a ZZ unit's multiply to the
// AVX2 loops of kernel_amd64.s: set once, from the CPU, and otherwise
// changed only by tests, which run both paths. The pure-Go loops are
// the specification, and the vector loops produce their bits: the same
// IEEE multiplies, adds and subtracts in the same order, no fused
// multiply-add. NaN payloads may differ.
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

// generalVec is the general 2×2 loop of kernel on the runs from offset
// mask on: runs of at least two pairs, or pairs of one block (t == 1).
//
//go:noescape
func generalVec(lo, hi []float64, mask, t int, u *quantum.Matrix2)

// realImagVec is the real-imaginary loop of kernel from offset v on,
// under generalVec's run rule. It returns the offset of the first
// vector whose pairs the −0 rule sends to full, unwritten, or an offset
// ≥ len(hi)/2 once the walk is done.
//
//go:noescape
func realImagVec(lo, hi []float64, v, mask, t int, u *quantum.Matrix2) int

// unitVec multiplies x's amplitudes, step of them (even) at a time, by
// tab[p], p the parity of the step's first offset's bits in t:
// amplitude o of the step by tab[p][o&1].
//
//go:noescape
func unitVec(x []float64, t, step int, tab *[2][2]complex128)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)

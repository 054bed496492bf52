//go:build !purego

#include "textflag.h"

// The AVX2 loops of the gate kernel (kernel_amd64.go). A YMM register
// holds two amplitudes as re, im, re, im. A complex product d·a is
// VADDSUBPD(dr·a, di·swap(a)): the even lane subtracts, the odd lane
// adds, so it is (dr·x − di·y, dr·y + di·x), Go's complex multiply with
// each product rounded on its own. Sums go in the Go code's order, and
// no instruction fuses a multiply into an add. generalVec and
// realImagVec walk the controlled-offset runs themselves, v =
// (v+2)|mask, two pairs a step, or (v+1)|mask on the interleaved path,
// where the target is qubit 0 and one 256-bit load holds the whole pair.
// The surrounding Go code is SSE, so each RET after AVX code follows a
// VZEROUPPER.

// func generalVec(lo, hi []float64, mask, t int, u *quantum.Matrix2)
TEXT ·generalVec(SB), NOSPLIT, $0-72
	MOVQ lo_base+0(FP), SI
	MOVQ hi_base+24(FP), DI
	MOVQ hi_len+32(FP), CX
	SHRQ $1, CX            // ba: amplitudes in a block
	MOVQ mask+48(FP), BX
	MOVQ BX, AX            // v
	MOVQ t+56(FP), DX
	MOVQ u+64(FP), R8
	CMPQ DX, $1
	JEQ  generalPairs
	SHLQ $4, DX            // t in bytes: lo's window sits t amplitudes below hi's
	VBROADCASTSD 0(R8), Y0  // re u00
	VBROADCASTSD 8(R8), Y1  // im u00
	VBROADCASTSD 16(R8), Y2 // re u01
	VBROADCASTSD 24(R8), Y3 // im u01
	VBROADCASTSD 32(R8), Y4 // re u10
	VBROADCASTSD 40(R8), Y5 // im u10
	VBROADCASTSD 48(R8), Y6 // re u11
	VBROADCASTSD 56(R8), Y7 // im u11
	JMP  generalTest

generalLoop:
	MOVQ AX, R9
	SHLQ $4, R9
	MOVQ R9, R10
	SUBQ DX, R10
	VMOVUPD (SI)(R10*1), Y8 // a0, two pairs
	VMOVUPD (DI)(R9*1), Y9  // a1
	VPERMILPD $5, Y8, Y10
	VPERMILPD $5, Y9, Y11

	// n0 = u00·a0 + u01·a1
	VMULPD    Y8, Y0, Y12
	VMULPD    Y10, Y1, Y13
	VADDSUBPD Y13, Y12, Y12
	VMULPD    Y9, Y2, Y13
	VMULPD    Y11, Y3, Y14
	VADDSUBPD Y14, Y13, Y13
	VADDPD    Y13, Y12, Y12

	// n1 = u10·a0 + u11·a1
	VMULPD    Y8, Y4, Y13
	VMULPD    Y10, Y5, Y14
	VADDSUBPD Y14, Y13, Y13
	VMULPD    Y9, Y6, Y14
	VMULPD    Y11, Y7, Y15
	VADDSUBPD Y15, Y14, Y14
	VADDPD    Y14, Y13, Y13

	VMOVUPD Y12, (SI)(R10*1)
	VMOVUPD Y13, (DI)(R9*1)
	ADDQ $2, AX
	ORQ  BX, AX

generalTest:
	CMPQ AX, CX
	JLT  generalLoop
	VZEROUPPER
	RET

	// t is qubit 0: lo and hi are one block, and amplitudes v−1, v are
	// one vector [a0, a1]. [u00·a0, u11·a1] + [u01·a1, u10·a0] is n0, n1,
	// the second sum's operands swapped, which changes no bit.
generalPairs:
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 48(R8), Y8
	VBLENDPD     $0x0c, Y8, Y0, Y0 // re u00, re u00, re u11, re u11
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 56(R8), Y8
	VBLENDPD     $0x0c, Y8, Y1, Y1 // im u00, im u00, im u11, im u11
	VBROADCASTSD 16(R8), Y2
	VBROADCASTSD 32(R8), Y8
	VBLENDPD     $0x0c, Y8, Y2, Y2 // re u01, re u01, re u10, re u10
	VBROADCASTSD 24(R8), Y3
	VBROADCASTSD 40(R8), Y8
	VBLENDPD     $0x0c, Y8, Y3, Y3 // im u01, im u01, im u10, im u10
	JMP          generalPairsTest

generalPairsLoop:
	MOVQ      AX, R9
	SHLQ      $4, R9
	VMOVUPD   -16(DI)(R9*1), Y8 // a0, a1
	VPERMILPD $5, Y8, Y9        // swap(a0), swap(a1)
	VPERMPD   $0x4e, Y8, Y10    // a1, a0
	VPERMPD   $0x1b, Y8, Y11    // swap(a1), swap(a0)
	VMULPD    Y8, Y0, Y12
	VMULPD    Y9, Y1, Y13
	VADDSUBPD Y13, Y12, Y12
	VMULPD    Y10, Y2, Y13
	VMULPD    Y11, Y3, Y14
	VADDSUBPD Y14, Y13, Y13
	VADDPD    Y13, Y12, Y12
	VMOVUPD   Y12, -16(DI)(R9*1)
	INCQ      AX
	ORQ       BX, AX

generalPairsTest:
	CMPQ AX, CX
	JLT  generalPairsLoop
	VZEROUPPER
	RET

// func realImagVec(lo, hi []float64, v, mask, t int, u *quantum.Matrix2) int
//
// The real-imaginary short form from offset v on. It stops before
// storing a vector where some pair's result has a component whose
// real·imag is 0 and a component that is −0, and returns that vector's
// offset; Go recomputes its pairs. Otherwise it returns an offset ≥ ba.
TEXT ·realImagVec(SB), NOSPLIT, $0-88
	MOVQ lo_base+0(FP), SI
	MOVQ hi_base+24(FP), DI
	MOVQ hi_len+32(FP), CX
	SHRQ $1, CX
	MOVQ v+48(FP), AX
	MOVQ mask+56(FP), BX
	MOVQ t+64(FP), DX
	MOVQ u+72(FP), R8
	VBROADCASTSD 0(R8), Y0  // re u00
	VBROADCASTSD 24(R8), Y1 // im u01
	VBROADCASTSD 40(R8), Y2 // im u10
	VBROADCASTSD 48(R8), Y3 // re u11
	VXORPD       Y4, Y4, Y4 // +0
	VPCMPEQQ     Y5, Y5, Y5
	VPSLLQ       $63, Y5, Y5 // −0
	CMPQ         DX, $1
	JEQ          realImagPairs
	SHLQ         $4, DX
	JMP          realImagTest

realImagLoop:
	MOVQ      AX, R9
	SHLQ      $4, R9
	MOVQ      R9, R10
	SUBQ      DX, R10
	VMOVUPD   (SI)(R10*1), Y8 // x0, y0
	VMOVUPD   (DI)(R9*1), Y9  // x1, y1
	VPERMILPD $5, Y8, Y10     // y0, x0
	VPERMILPD $5, Y9, Y11     // y1, x1
	VMULPD    Y8, Y0, Y12
	VMULPD    Y11, Y1, Y13
	VADDSUBPD Y13, Y12, Y12   // n0 = (r00·x0 − s01·y1, r00·y0 + s01·x1)
	VMULPD    Y9, Y3, Y13
	VMULPD    Y10, Y2, Y14
	VADDSUBPD Y14, Y13, Y13   // n1 = (r11·x1 − s10·y0, r11·y1 + s10·x0)

	// The pre-filter: real·imag of n0 and n1, lanes n0, n1 of the
	// first pair then of the second.
	VUNPCKLPD Y13, Y12, Y14
	VUNPCKHPD Y13, Y12, Y15
	VMULPD    Y15, Y14, Y14
	VCMPPD    $0, Y4, Y14, Y14 // == 0, false on NaN
	VMOVMSKPD Y14, R12
	TESTQ     R12, R12
	JNZ       realImagSign

realImagStore:
	VMOVUPD Y12, (SI)(R10*1)
	VMOVUPD Y13, (DI)(R9*1)
	ADDQ    $2, AX
	ORQ     BX, AX

realImagTest:
	CMPQ AX, CX
	JLT  realImagLoop
	MOVQ AX, ret+80(FP)
	VZEROUPPER
	RET

	// Lanes 0–1 of both masks are the first pair, 2–3 the second: a pair
	// hits when it has a bit in each.
realImagSign:
	VPCMPEQQ  Y5, Y12, Y14
	VPCMPEQQ  Y5, Y13, Y15
	VORPD     Y15, Y14, Y14
	VMOVMSKPD Y14, R13
	MOVQ      R12, R14
	SHRQ      $1, R14
	ORQ       R14, R12
	MOVQ      R13, R14
	SHRQ      $1, R14
	ORQ       R14, R13
	ANDQ      R13, R12
	ANDQ      $5, R12
	JZ        realImagStore
	MOVQ      AX, ret+80(FP)
	VZEROUPPER
	RET

	// t is qubit 0: one vector [a0, a1] is the pair.
realImagPairs:
	VBLENDPD $0x0c, Y3, Y0, Y0 // re u00, re u00, re u11, re u11
	VBLENDPD $0x0c, Y2, Y1, Y1 // im u01, im u01, im u10, im u10
	JMP      realImagPairsTest

realImagPairsLoop:
	MOVQ      AX, R9
	SHLQ      $4, R9
	VMOVUPD   -16(DI)(R9*1), Y8 // x0, y0, x1, y1
	VPERMPD   $0x1b, Y8, Y9     // y1, x1, y0, x0
	VMULPD    Y8, Y0, Y12
	VMULPD    Y9, Y1, Y13
	VADDSUBPD Y13, Y12, Y12     // n0, n1
	VPERMILPD $5, Y12, Y13
	VMULPD    Y13, Y12, Y13     // real·imag of n0 (twice), of n1 (twice)
	VCMPPD    $0, Y4, Y13, Y13
	VMOVMSKPD Y13, R12
	TESTQ     R12, R12
	JNZ       realImagPairsSign

realImagPairsStore:
	VMOVUPD Y12, -16(DI)(R9*1)
	INCQ    AX
	ORQ     BX, AX

realImagPairsTest:
	CMPQ AX, CX
	JLT  realImagPairsLoop
	MOVQ AX, ret+80(FP)
	VZEROUPPER
	RET

realImagPairsSign:
	VPCMPEQQ  Y5, Y12, Y13
	VMOVMSKPD Y13, R12
	TESTQ     R12, R12
	JZ        realImagPairsStore
	MOVQ      AX, ret+80(FP)
	VZEROUPPER
	RET

// func unitVec(x []float64, t, step int, tab *[2][2]complex128)
//
// Multiplies the amplitudes of x (a multiple of four) in steps of step
// (a power of two, at least two) amplitudes: the step from amplitude o
// by tab[p], p the parity of o&t, amplitude o+j by tab[p][j&1]. The
// frame holds tab[p] as two vectors each, its real parts and its
// imaginary parts. unitPairs goes four amplitudes at a time, the parity
// read once: the second vector's p is the first's xor the parity of t's
// bit 1. That is exact for every step, since a step of eight or more
// leaves t's bits 0–2 clear; unitLoop, which reads the parity once a
// step and keeps tab[p] in registers, takes steps of eight or more
// because it is faster there: 0.52 against 0.89 ns/amp for unitPairs
// alone (medians of ten alternating runs of
// BenchmarkKernel/zz/par=0/impl=vec on a 2-core Xeon).
TEXT ·unitVec(SB), NOSPLIT, $128-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	SHLQ $3, CX                  // x's bytes
	MOVQ t+24(FP), BX
	MOVQ BX, R13
	SHRQ $1, R13
	ANDQ $1, R13
	SHLQ $6, R13                 // the parity of t's bit 1, as a frame offset
	SHLQ $4, BX                  // t, in bytes: AND with a byte offset
	MOVQ step+32(FP), DX
	SHLQ $4, DX
	MOVQ tab+40(FP), R8
	VMOVDDUP  0(R8), Y0
	VMOVUPD   Y0, 0(SP)          // re tab[0][0], twice, re tab[0][1], twice
	VPERMILPD $15, 0(R8), Y0
	VMOVUPD   Y0, 32(SP)         // the imaginary parts
	VMOVDDUP  32(R8), Y0
	VMOVUPD   Y0, 64(SP)         // tab[1]'s
	VPERMILPD $15, 32(R8), Y0
	VMOVUPD   Y0, 96(SP)
	XORQ      R10, R10           // o, in bytes
	CMPQ      DX, $64
	JLE       unitPairsTest
	JMP       unitTest

unitStep:
	MOVQ    R10, R9
	ANDQ    BX, R9
	POPCNTQ R9, R9
	ANDQ    $1, R9
	SHLQ    $6, R9
	VMOVUPD 0(SP)(R9*1), Y0
	VMOVUPD 32(SP)(R9*1), Y1
	LEAQ    (R10)(DX*1), R11

unitLoop:
	VMOVUPD   (DI)(R10*1), Y2
	VMOVUPD   32(DI)(R10*1), Y4
	VPERMILPD $5, Y2, Y3
	VPERMILPD $5, Y4, Y5
	VMULPD    Y2, Y0, Y2
	VMULPD    Y3, Y1, Y3
	VMULPD    Y4, Y0, Y4
	VMULPD    Y5, Y1, Y5
	VADDSUBPD Y3, Y2, Y2
	VADDSUBPD Y5, Y4, Y4
	VMOVUPD   Y2, (DI)(R10*1)
	VMOVUPD   Y4, 32(DI)(R10*1)
	ADDQ      $64, R10
	CMPQ      R10, R11
	JLT       unitLoop

unitTest:
	CMPQ R10, CX
	JLT  unitStep
	VZEROUPPER
	RET

unitPairs:
	MOVQ      R10, R9
	ANDQ      BX, R9
	POPCNTQ   R9, R9
	ANDQ      $1, R9
	SHLQ      $6, R9
	MOVQ      R9, R11
	XORQ      R13, R11
	VMOVUPD   (DI)(R10*1), Y2
	VMOVUPD   32(DI)(R10*1), Y4
	VPERMILPD $5, Y2, Y3
	VPERMILPD $5, Y4, Y5
	VMULPD    0(SP)(R9*1), Y2, Y2
	VMULPD    32(SP)(R9*1), Y3, Y3
	VMULPD    0(SP)(R11*1), Y4, Y4
	VMULPD    32(SP)(R11*1), Y5, Y5
	VADDSUBPD Y3, Y2, Y2
	VADDSUBPD Y5, Y4, Y4
	VMOVUPD   Y2, (DI)(R10*1)
	VMOVUPD   Y4, 32(DI)(R10*1)
	ADDQ      $64, R10

unitPairsTest:
	CMPQ R10, CX
	JLT  unitPairs
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

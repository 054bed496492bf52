//go:build !purego

#include "textflag.h"

// The AVX2 loops of the gate kernel (kernel_amd64.go). A YMM register
// holds two amplitudes as re, im, re, im. A complex product d·a is
// VADDSUBPD(dr·a, di·swap(a)): the even lane subtracts, the odd lane
// adds, so it is (dr·x − di·y, dr·y + di·x), Go's complex multiply with
// each product rounded on its own. Sums go in the Go code's order, and
// no instruction fuses a multiply into an add. The surrounding Go code
// is SSE, so each RET after AVX code follows a VZEROUPPER.
//
// The four 2×2 classes are one loop body, KERNEL, with the class's
// arithmetic plugged in: generalVec, diagonalVec, swapVec and
// realImagVec. Each walks the controlled-offset runs itself, one of
// three ways:
//   - runs of two pairs or more: v = (v+2)|mask, the two pairs' lo
//     amplitudes one 256-bit load, their hi amplitudes another;
//   - runs of one pair with the target off qubit 0 (a control on qubit
//     0, or a block of one amplitude): two runs a step, each vector
//     packed from two 128-bit loads; an odd last run fills both halves
//     and is stored twice;
//   - the target on qubit 0: (v+1)|mask, one load holding the pair.
// The short forms keep the Go loops' +0 rule: each result vector gets
// one VADDPD of a zero register, which keeps a nonzero component and
// makes −0 +0, as the Go loops' r + 0 does. The general class adds
// nothing.

// The two-pair layout. BROADCAST_U puts the matrix at R8 in Y0–Y7, each
// entry part in all four lanes: re u00, im u00, re u01, im u01, re u10,
// im u10, re u11, im u11. Y8 holds two pairs' lo amplitudes a0, Y9 their
// hi amplitudes a1. A class macro leaves n0 in Y12 and n1 in Y13 and may
// overwrite Y10, Y11, Y14 and Y15.
#define BROADCAST_U \
	VBROADCASTSD 0(R8), Y0; \
	VBROADCASTSD 8(R8), Y1; \
	VBROADCASTSD 16(R8), Y2; \
	VBROADCASTSD 24(R8), Y3; \
	VBROADCASTSD 32(R8), Y4; \
	VBROADCASTSD 40(R8), Y5; \
	VBROADCASTSD 48(R8), Y6; \
	VBROADCASTSD 56(R8), Y7

// GENERAL2: n0 = u00·a0 + u01·a1, n1 = u10·a0 + u11·a1.
#define GENERAL2 \
	VPERMILPD $5, Y8, Y10; \
	VPERMILPD $5, Y9, Y11; \
	VMULPD    Y8, Y0, Y12; \
	VMULPD    Y10, Y1, Y13; \
	VADDSUBPD Y13, Y12, Y12; \
	VMULPD    Y9, Y2, Y13; \
	VMULPD    Y11, Y3, Y14; \
	VADDSUBPD Y14, Y13, Y13; \
	VADDPD    Y13, Y12, Y12; \
	VMULPD    Y8, Y4, Y13; \
	VMULPD    Y10, Y5, Y14; \
	VADDSUBPD Y14, Y13, Y13; \
	VMULPD    Y9, Y6, Y14; \
	VMULPD    Y11, Y7, Y15; \
	VADDSUBPD Y15, Y14, Y14; \
	VADDPD    Y14, Y13, Y13

// DIAGONAL2: n0 = u00·a0 + 0, n1 = u11·a1 + 0.
#define DIAGONAL2 \
	VPERMILPD $5, Y8, Y10; \
	VPERMILPD $5, Y9, Y11; \
	VMULPD    Y8, Y0, Y12; \
	VMULPD    Y10, Y1, Y14; \
	VADDSUBPD Y14, Y12, Y12; \
	VMULPD    Y9, Y6, Y13; \
	VMULPD    Y11, Y7, Y15; \
	VADDSUBPD Y15, Y13, Y13; \
	VXORPD    Y14, Y14, Y14; \
	VADDPD    Y14, Y12, Y12; \
	VADDPD    Y14, Y13, Y13

// SWAP2: n0 = a1 + 0, n1 = a0 + 0.
#define SWAP2 \
	VXORPD Y14, Y14, Y14; \
	VADDPD Y14, Y9, Y12; \
	VADDPD Y14, Y8, Y13

// REALIMAG2: with r the diagonal's real parts (Y0, Y6) and s the
// off-diagonal's imaginary parts (Y3, Y5), n0 = (r00·x0 − s01·y1,
// r00·y0 + s01·x1) + 0 and n1 = (r11·x1 − s10·y0, r11·y1 + s10·x0) + 0.
#define REALIMAG2 \
	VPERMILPD $5, Y8, Y10; \
	VPERMILPD $5, Y9, Y11; \
	VMULPD    Y8, Y0, Y12; \
	VMULPD    Y11, Y3, Y14; \
	VADDSUBPD Y14, Y12, Y12; \
	VMULPD    Y9, Y6, Y13; \
	VMULPD    Y10, Y5, Y15; \
	VADDSUBPD Y15, Y13, Y13; \
	VXORPD    Y14, Y14, Y14; \
	VADDPD    Y14, Y12, Y12; \
	VADDPD    Y14, Y13, Y13

// The one-pair layout, the target on qubit 0: Y8 is [a0, a1]. PAIRS_U
// puts the matrix at R8 in Y0–Y3: re u00, re u00, re u11, re u11 (Y0),
// their imaginary parts (Y1), re u01, re u01, re u10, re u10 (Y2) and
// theirs (Y3), and +0 in Y4. A class macro leaves [n0, n1] in Y12 and
// may overwrite Y9–Y11, Y13 and Y14.
#define PAIRS_U \
	VBROADCASTSD 0(R8), Y0; \
	VBROADCASTSD 48(R8), Y8; \
	VBLENDPD     $0x0c, Y8, Y0, Y0; \
	VBROADCASTSD 8(R8), Y1; \
	VBROADCASTSD 56(R8), Y8; \
	VBLENDPD     $0x0c, Y8, Y1, Y1; \
	VBROADCASTSD 16(R8), Y2; \
	VBROADCASTSD 32(R8), Y8; \
	VBLENDPD     $0x0c, Y8, Y2, Y2; \
	VBROADCASTSD 24(R8), Y3; \
	VBROADCASTSD 40(R8), Y8; \
	VBLENDPD     $0x0c, Y8, Y3, Y3; \
	VXORPD       Y4, Y4, Y4

// GENERAL1: [u00·a0, u11·a1] + [u01·a1, u10·a0], n0, n1 with the
// second sum's operands swapped, which changes no bit.
#define GENERAL1 \
	VPERMILPD $5, Y8, Y9; \
	VPERMPD   $0x4e, Y8, Y10; \
	VPERMPD   $0x1b, Y8, Y11; \
	VMULPD    Y8, Y0, Y12; \
	VMULPD    Y9, Y1, Y13; \
	VADDSUBPD Y13, Y12, Y12; \
	VMULPD    Y10, Y2, Y13; \
	VMULPD    Y11, Y3, Y14; \
	VADDSUBPD Y14, Y13, Y13; \
	VADDPD    Y13, Y12, Y12

// DIAGONAL1: [u00·a0, u11·a1] + 0.
#define DIAGONAL1 \
	VPERMILPD $5, Y8, Y9; \
	VMULPD    Y8, Y0, Y12; \
	VMULPD    Y9, Y1, Y13; \
	VADDSUBPD Y13, Y12, Y12; \
	VADDPD    Y4, Y12, Y12

// SWAP1: [a1, a0] + 0.
#define SWAP1 \
	VPERMPD $0x4e, Y8, Y12; \
	VADDPD  Y4, Y12, Y12

// REALIMAG1: [r00, r00, r11, r11]·[x0, y0, x1, y1] ∓ [s01, s01, s10,
// s10]·[y1, x1, y0, x0], + 0.
#define REALIMAG1 \
	VPERMPD   $0x1b, Y8, Y9; \
	VMULPD    Y8, Y0, Y12; \
	VMULPD    Y9, Y3, Y13; \
	VADDSUBPD Y13, Y12, Y12; \
	VADDPD    Y4, Y12, Y12

// KERNEL is the loop of one class, short2 and short1 its arithmetic in
// the two layouts. It takes lo's and hi's bases in SI and DI, the
// block's amplitude count in CX, mask in BX and t in DX, and the
// matrix's address in R8. AX is v, the hi offset of the step's first
// pair; R9 and R10 are its hi and lo byte offsets, R13 and R14 those of
// the second run in the packed path, and R11 is scratch.
#define KERNEL(short2, short1) \
	MOVQ    BX, AX; \
	CMPQ    DX, $1; \
	JEQ     pairs; \
	SHLQ    $4, DX; \
	BROADCAST_U; \
	MOVQ    BX, R11; \
	NEGQ    R11; \
	ANDQ    BX, R11; \
	CMOVQEQ CX, R11; \
	CMPQ    R11, $1; \
	JEQ     packedTest; \
	JMP     runsTest; \
runsLoop: \
	MOVQ    AX, R9; \
	SHLQ    $4, R9; \
	MOVQ    R9, R10; \
	SUBQ    DX, R10; \
	VMOVUPD (SI)(R10*1), Y8; \
	VMOVUPD (DI)(R9*1), Y9; \
	short2; \
	VMOVUPD Y12, (SI)(R10*1); \
	VMOVUPD Y13, (DI)(R9*1); \
	ADDQ    $2, AX; \
	ORQ     BX, AX; \
runsTest: \
	CMPQ AX, CX; \
	JLT  runsLoop; \
	VZEROUPPER; \
	RET; \
packedLoop: \
	LEAQ         1(AX), R11; \
	ORQ          BX, R11; \
	CMPQ         R11, CX; \
	CMOVQGE      AX, R11; \
	MOVQ         AX, R9; \
	SHLQ         $4, R9; \
	MOVQ         R9, R10; \
	SUBQ         DX, R10; \
	MOVQ         R11, R13; \
	SHLQ         $4, R13; \
	MOVQ         R13, R14; \
	SUBQ         DX, R14; \
	VMOVUPD      (SI)(R10*1), X8; \
	VINSERTF128  $1, (SI)(R14*1), Y8, Y8; \
	VMOVUPD      (DI)(R9*1), X9; \
	VINSERTF128  $1, (DI)(R13*1), Y9, Y9; \
	short2; \
	VMOVUPD      X12, (SI)(R10*1); \
	VEXTRACTF128 $1, Y12, (SI)(R14*1); \
	VMOVUPD      X13, (DI)(R9*1); \
	VEXTRACTF128 $1, Y13, (DI)(R13*1); \
	MOVQ         R13, AX; \
	SHRQ         $4, AX; \
	INCQ         AX; \
	ORQ          BX, AX; \
packedTest: \
	CMPQ AX, CX; \
	JLT  packedLoop; \
	VZEROUPPER; \
	RET; \
pairs: \
	PAIRS_U; \
	JMP pairsTest; \
pairsLoop: \
	MOVQ    AX, R9; \
	SHLQ    $4, R9; \
	VMOVUPD -16(DI)(R9*1), Y8; \
	short1; \
	VMOVUPD Y12, -16(DI)(R9*1); \
	INCQ    AX; \
	ORQ     BX, AX; \
pairsTest: \
	CMPQ AX, CX; \
	JLT  pairsLoop; \
	VZEROUPPER; \
	RET

// func generalVec(lo, hi []float64, mask, t int, u *quantum.Matrix2)
TEXT ·generalVec(SB), NOSPLIT, $0-72
	MOVQ lo_base+0(FP), SI
	MOVQ hi_base+24(FP), DI
	MOVQ hi_len+32(FP), CX
	SHRQ $1, CX
	MOVQ mask+48(FP), BX
	MOVQ t+56(FP), DX
	MOVQ u+64(FP), R8
	KERNEL(GENERAL2, GENERAL1)

// func diagonalVec(lo, hi []float64, mask, t int, u *quantum.Matrix2)
TEXT ·diagonalVec(SB), NOSPLIT, $0-72
	MOVQ lo_base+0(FP), SI
	MOVQ hi_base+24(FP), DI
	MOVQ hi_len+32(FP), CX
	SHRQ $1, CX
	MOVQ mask+48(FP), BX
	MOVQ t+56(FP), DX
	MOVQ u+64(FP), R8
	KERNEL(DIAGONAL2, DIAGONAL1)

// func swapVec(lo, hi []float64, mask, t int, u *quantum.Matrix2)
TEXT ·swapVec(SB), NOSPLIT, $0-72
	MOVQ lo_base+0(FP), SI
	MOVQ hi_base+24(FP), DI
	MOVQ hi_len+32(FP), CX
	SHRQ $1, CX
	MOVQ mask+48(FP), BX
	MOVQ t+56(FP), DX
	MOVQ u+64(FP), R8
	KERNEL(SWAP2, SWAP1)

// func realImagVec(lo, hi []float64, mask, t int, u *quantum.Matrix2)
TEXT ·realImagVec(SB), NOSPLIT, $0-72
	MOVQ lo_base+0(FP), SI
	MOVQ hi_base+24(FP), DI
	MOVQ hi_len+32(FP), CX
	SHRQ $1, CX
	MOVQ mask+48(FP), BX
	MOVQ t+56(FP), DX
	MOVQ u+64(FP), R8
	KERNEL(REALIMAG2, REALIMAG1)

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

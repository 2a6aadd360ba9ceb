#include "textflag.h"

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

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func finiteAVX2(x []float64) bool
//
// ORs together the bits of x[i]-x[i] over the first len(x)&^7
// elements: +0 (all bits clear) for a finite value, NaN otherwise.
TEXT ·finiteAVX2(SB), NOSPLIT, $0-25
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	SHRQ   $3, CX
	JZ     reduce

loop:
	VMOVUPD (SI), Y2
	VMOVUPD 32(SI), Y3
	VSUBPD  Y2, Y2, Y2
	VSUBPD  Y3, Y3, Y3
	VORPD   Y2, Y0, Y0
	VORPD   Y3, Y1, Y1
	ADDQ    $64, SI
	DECQ    CX
	JNZ     loop

reduce:
	VORPD      Y1, Y0, Y0
	VPTEST     Y0, Y0
	SETEQ      ret+24(FP)
	VZEROUPPER
	RET

// func kernel4x8(d, a, b []float64, kn, n int, acc bool)
//
// d (4×n) = a (4×kn) · b (kn×n), or d += a·b when acc is set, n a
// positive multiple of 8, kn ≥ 1. Each 4×8 output tile lives in Y0–Y7
// (row r in Y(2r), Y(2r+1)) and is summed from +0, or from the tile's
// own values in d when acc is set, over k ascending: per k, the tile's
// row of b is loaded once, each row's a[r][k] broadcast, multiplied and
// added as two separate roundings (no FMA), then the tile is stored.
TEXT ·kernel4x8(SB), NOSPLIT, $0-89
	MOVQ   d_base+0(FP), DI
	MOVQ   a_base+24(FP), SI
	MOVQ   b_base+48(FP), DX
	MOVQ   kn+72(FP), R8
	MOVQ   n+80(FP), BX
	MOVBQZX acc+88(FP), CX
	SHLQ   $3, R8           // a's row stride in bytes, the k loop's end
	SHLQ   $3, BX           // b's and d's row stride in bytes
	LEAQ   (SI)(R8*1), R9   // a row 1
	LEAQ   (R9)(R8*1), R10  // a row 2
	LEAQ   (R10)(R8*1), R11 // a row 3
	XORQ   R12, R12         // the tile's column offset in bytes

tile:
	TESTQ  CX, CX
	JNZ    load
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP    kstart

load:
	LEAQ    (DI)(R12*1), AX
	VMOVUPD (AX), Y0
	VMOVUPD 32(AX), Y1
	ADDQ    BX, AX
	VMOVUPD (AX), Y2
	VMOVUPD 32(AX), Y3
	ADDQ    BX, AX
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	ADDQ    BX, AX
	VMOVUPD (AX), Y6
	VMOVUPD 32(AX), Y7

kstart:
	LEAQ (DX)(R12*1), R13 // &b[k][j]
	XORQ R14, R14         // k in bytes

kloop:
	VMOVUPD      (R13), Y8
	VMOVUPD      32(R13), Y9
	VBROADCASTSD (SI)(R14*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y0, Y0
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y1, Y1
	VBROADCASTSD (R9)(R14*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y2, Y2
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y3, Y3
	VBROADCASTSD (R10)(R14*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y4, Y4
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y5, Y5
	VBROADCASTSD (R11)(R14*1), Y10
	VMULPD       Y8, Y10, Y11
	VADDPD       Y11, Y6, Y6
	VMULPD       Y9, Y10, Y12
	VADDPD       Y12, Y7, Y7
	ADDQ         BX, R13
	ADDQ         $8, R14
	CMPQ         R14, R8
	JLT          kloop

	LEAQ    (DI)(R12*1), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	ADDQ    BX, AX
	VMOVUPD Y2, (AX)
	VMOVUPD Y3, 32(AX)
	ADDQ    BX, AX
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	ADDQ    BX, AX
	VMOVUPD Y6, (AX)
	VMOVUPD Y7, 32(AX)
	ADDQ    $64, R12
	CMPQ    R12, BX
	JLT     tile

	VZEROUPPER
	RET

// func reluRead2x4(dst, h, w, b []float64, kn int)
//
// dst[2r], dst[2r+1] = ReLU(h[r])·w + b for the four rows r of h (4×kn,
// kn a positive multiple of 4), w kn×2 and b the two biases. Lane r of
// Y0 and Y1 holds row r's two sums, each summed from +0 over k
// ascending. Per four units the 4×4 block of h is loaded and transposed
// (VUNPCKLPD/VUNPCKHPD, then VPERM2F128) so each register holds one unit
// of the four rows; the ReLU is VMAXPD with +0 as the first source, which
// returns the second source — the unit — when it is NaN; each unit is
// multiplied by the broadcast w[k][0] and w[k][1] and added as two
// separate roundings (no FMA). The sums are interleaved back into row
// order and the bias added last.
TEXT ·reluRead2x4(SB), NOSPLIT, $0-104
	MOVQ   dst_base+0(FP), DI
	MOVQ   h_base+24(FP), SI
	MOVQ   w_base+48(FP), DX
	MOVQ   b_base+72(FP), CX
	MOVQ   kn+96(FP), R8
	SHLQ   $3, R8           // h's row stride in bytes, the k loop's end
	LEAQ   (SI)(R8*1), R9   // h row 1
	LEAQ   (R9)(R8*1), R10  // h row 2
	LEAQ   (R10)(R8*1), R11 // h row 3
	XORQ   R14, R14         // k in bytes
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y15, Y15, Y15

unit4:
	VMOVUPD    (SI)(R14*1), Y2
	VMOVUPD    (R9)(R14*1), Y3
	VMOVUPD    (R10)(R14*1), Y4
	VMOVUPD    (R11)(R14*1), Y5
	VUNPCKLPD  Y3, Y2, Y6       // r0k0 r1k0 r0k2 r1k2
	VUNPCKHPD  Y3, Y2, Y7       // r0k1 r1k1 r0k3 r1k3
	VUNPCKLPD  Y5, Y4, Y8       // r2k0 r3k0 r2k2 r3k2
	VUNPCKHPD  Y5, Y4, Y9       // r2k1 r3k1 r2k3 r3k3
	VPERM2F128 $0x20, Y8, Y6, Y2 // unit k0 of rows 0–3
	VPERM2F128 $0x20, Y9, Y7, Y3 // unit k1
	VPERM2F128 $0x31, Y8, Y6, Y4 // unit k2
	VPERM2F128 $0x31, Y9, Y7, Y5 // unit k3
	VMAXPD     Y2, Y15, Y2
	VMAXPD     Y3, Y15, Y3
	VMAXPD     Y4, Y15, Y4
	VMAXPD     Y5, Y15, Y5

	VBROADCASTSD (DX), Y10
	VBROADCASTSD 8(DX), Y11
	VMULPD       Y10, Y2, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y11, Y2, Y13
	VADDPD       Y13, Y1, Y1
	VBROADCASTSD 16(DX), Y10
	VBROADCASTSD 24(DX), Y11
	VMULPD       Y10, Y3, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y11, Y3, Y13
	VADDPD       Y13, Y1, Y1
	VBROADCASTSD 32(DX), Y10
	VBROADCASTSD 40(DX), Y11
	VMULPD       Y10, Y4, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y11, Y4, Y13
	VADDPD       Y13, Y1, Y1
	VBROADCASTSD 48(DX), Y10
	VBROADCASTSD 56(DX), Y11
	VMULPD       Y10, Y5, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y11, Y5, Y13
	VADDPD       Y13, Y1, Y1

	ADDQ $64, DX
	ADDQ $32, R14
	CMPQ R14, R8
	JLT  unit4

	VUNPCKLPD      Y1, Y0, Y6        // a0r0 a1r0 a0r2 a1r2
	VUNPCKHPD      Y1, Y0, Y7        // a0r1 a1r1 a0r3 a1r3
	VPERM2F128     $0x20, Y7, Y6, Y8 // rows 0 and 1
	VPERM2F128     $0x31, Y7, Y6, Y9 // rows 2 and 3
	VBROADCASTF128 (CX), Y10         // b0 b1 b0 b1
	VADDPD         Y10, Y8, Y8
	VADDPD         Y10, Y9, Y9
	VMOVUPD        Y8, (DI)
	VMOVUPD        Y9, 32(DI)
	VZEROUPPER
	RET

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

// func kernel4x8(d, a, b []float64, kn, n int)
//
// d (4×n) = a (4×kn) · b (kn×n), n a positive multiple of 8, kn ≥ 1.
// Each 4×8 output tile lives in Y0–Y7 (row r in Y(2r), Y(2r+1)) and is
// summed from +0 over k ascending: per k, the tile's row of b is loaded
// once, each row's a[r][k] broadcast, multiplied and added as two
// separate roundings (no FMA), then the tile is stored.
TEXT ·kernel4x8(SB), NOSPLIT, $0-88
	MOVQ d_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ kn+72(FP), R8
	MOVQ n+80(FP), BX
	SHLQ $3, R8             // a's row stride in bytes, the k loop's end
	SHLQ $3, BX             // b's and d's row stride in bytes
	LEAQ (SI)(R8*1), R9     // a row 1
	LEAQ (R9)(R8*1), R10    // a row 2
	LEAQ (R10)(R8*1), R11   // a row 3
	XORQ R12, R12           // the tile's column offset in bytes

tile:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	LEAQ   (DX)(R12*1), R13 // &b[k][j]
	XORQ   R14, R14         // k in bytes

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

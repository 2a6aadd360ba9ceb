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
// of the four rows; the ReLU is VMAXPD with the unit as the first source
// and +0 as the second, which VMAXPD returns when the unit is not > 0,
// NaN and −0 included (the tape's ReLU); each unit is
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
	VMAXPD     Y15, Y2, Y2
	VMAXPD     Y15, Y3, Y3
	VMAXPD     Y15, Y4, Y4
	VMAXPD     Y15, Y5, Y5

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

// The constants of math's amd64 Exp (math/exp_amd64.s): the same decimal
// literals, so the assembler rounds them to the same bits.
DATA exp4data<>+0(SB)/8, $1.4426950408889634073599246810018920      // LOG2E
DATA exp4data<>+8(SB)/8, $0.69314718055966295651160180568695068359375 // LN2U
DATA exp4data<>+16(SB)/8, $0.28235290563031577122588448175013436025525412068e-12 // LN2L
DATA exp4data<>+24(SB)/8, $0.0625
DATA exp4data<>+32(SB)/8, $2.4801587301587301587e-5
DATA exp4data<>+40(SB)/8, $1.9841269841269841270e-4
DATA exp4data<>+48(SB)/8, $1.3888888888888888889e-3
DATA exp4data<>+56(SB)/8, $8.3333333333333333333e-3
DATA exp4data<>+64(SB)/8, $4.1666666666666666667e-2
DATA exp4data<>+72(SB)/8, $1.6666666666666666667e-1
DATA exp4data<>+80(SB)/8, $0.5
DATA exp4data<>+88(SB)/8, $1.0
DATA exp4data<>+96(SB)/8, $2.0
DATA exp4data<>+104(SB)/8, $700.0
DATA exp4data<>+112(SB)/8, $0x7fffffffffffffff // |x| mask
DATA exp4data<>+120(SB)/8, $1023                // exponent bias
GLOBL exp4data<>(SB), RODATA|NOPTR, $128

// func exp4(dst, src []float64) int
//
// Sets dst[i] = math.Exp(src[i]) for the leading blocks of four values
// of src (len(src)&^3 of them), and stops before the first block holding
// a value outside [−700, 700] or a NaN; it returns how many values it
// wrote. Within that range math's amd64 Exp with FMA takes none of its
// special-case branches, and each lane here replays its avxfma sequence
// op for op: n = round(x·log2 e) with the MXCSR rounding (nearest, as
// CVTSD2SL), x − n·LN2U and x − n·LN2L as two fused negated
// multiply-adds, ×1/16, the FMA Horner chain of the Taylor series, four
// x·(x+2) steps the last of them fused with the +1, and 2ⁿ built from
// n + 1023 shifted into the exponent field and multiplied in.
TEXT ·exp4(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	XORQ         AX, AX
	SHRQ         $2, CX
	JZ           done
	VBROADCASTSD exp4data<>+0(SB), Y15  // LOG2E
	VBROADCASTSD exp4data<>+8(SB), Y14  // LN2U
	VBROADCASTSD exp4data<>+16(SB), Y13 // LN2L
	VBROADCASTSD exp4data<>+24(SB), Y12 // 0.0625
	VBROADCASTSD exp4data<>+88(SB), Y11 // 1.0
	VBROADCASTSD exp4data<>+96(SB), Y10 // 2.0
	VBROADCASTSD exp4data<>+104(SB), Y9 // 700
	VBROADCASTSD exp4data<>+112(SB), Y8 // |x| mask
	VBROADCASTSD exp4data<>+120(SB), Y7 // 1023

block:
	VMOVUPD    (SI), Y0
	VANDPD     Y8, Y0, Y1
	VCMPPD     $0x12, Y9, Y1, Y1 // |x| <= 700, ordered: false for NaN
	VMOVMSKPD  Y1, DX
	CMPQ       DX, $15
	JNE        done

	VMULPD       Y15, Y0, Y1
	VCVTPD2DQY   Y1, X3      // n
	VCVTDQ2PD    X3, Y1      // float64(n)
	VFNMADD231PD Y14, Y1, Y0 // x −= n·LN2U
	VFNMADD231PD Y13, Y1, Y0 // x −= n·LN2L
	VMULPD       Y12, Y0, Y0

	VBROADCASTSD exp4data<>+32(SB), Y2
	VBROADCASTSD exp4data<>+40(SB), Y4
	VFMADD213PD  Y4, Y0, Y2
	VBROADCASTSD exp4data<>+48(SB), Y5
	VFMADD213PD  Y5, Y0, Y2
	VBROADCASTSD exp4data<>+56(SB), Y4
	VFMADD213PD  Y4, Y0, Y2
	VBROADCASTSD exp4data<>+64(SB), Y5
	VFMADD213PD  Y5, Y0, Y2
	VBROADCASTSD exp4data<>+72(SB), Y4
	VFMADD213PD  Y4, Y0, Y2
	VBROADCASTSD exp4data<>+80(SB), Y5
	VFMADD213PD  Y5, Y0, Y2
	VFMADD213PD  Y11, Y0, Y2
	VMULPD       Y2, Y0, Y0

	VADDPD      Y10, Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      Y10, Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      Y10, Y0, Y2
	VMULPD      Y2, Y0, Y0
	VADDPD      Y10, Y0, Y2
	VFMADD213PD Y11, Y2, Y0

	VPMOVSXDQ X3, Y3
	VPADDQ    Y7, Y3, Y3
	VPSLLQ    $52, Y3, Y3
	VMULPD    Y3, Y0, Y0
	VMOVUPD   Y0, (DI)

	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $4, AX
	DECQ CX
	JNZ  block

done:
	MOVQ AX, ret+48(FP)
	VZEROUPPER
	RET

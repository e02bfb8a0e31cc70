//go:build amd64 && !purego

#include "textflag.h"

// Both kernels vectorise across j only. A lane holds one dst[j] and runs
// that element's chain in coefficient order, one fused multiply-add per step
// (VFMADD231PD, rounded once: acc = fl(a·b + acc)), so each lane computes
// exactly what the Go reference's math.FMA does. FMA3 is VEX-encoded, and
// the tier that calls these kernels requires its CPUID bit (detectTier).
// Loads and stores are unaligned (VMOVUPD, and VEX memory operands do not
// fault on alignment). The scalar tails use VEX-encoded VFMADD231SD so no
// legacy-SSE instruction runs with dirty upper halves, and VZEROUPPER
// before RET spares the Go code that follows the AVX→SSE transition stall.

// func axpy4AVX2(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	VBROADCASTSD a0+120(FP), Y0
	VBROADCASTSD a1+128(FP), Y1
	VBROADCASTSD a2+136(FP), Y2
	VBROADCASTSD a3+144(FP), Y3
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $~7, DX

	// Eight columns per pass: two independent chains in flight.
axpy4_loop8:
	CMPQ AX, DX
	JGE  axpy4_tail4
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VFMADD231PD (R8)(AX*8), Y0, Y4
	VFMADD231PD 32(R8)(AX*8), Y0, Y5
	VFMADD231PD (R9)(AX*8), Y1, Y4
	VFMADD231PD 32(R9)(AX*8), Y1, Y5
	VFMADD231PD (R10)(AX*8), Y2, Y4
	VFMADD231PD 32(R10)(AX*8), Y2, Y5
	VFMADD231PD (R11)(AX*8), Y3, Y4
	VFMADD231PD 32(R11)(AX*8), Y3, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  axpy4_loop8

axpy4_tail4:
	MOVQ CX, DX
	ANDQ $~3, DX
	CMPQ AX, DX
	JGE  axpy4_tail1
	VMOVUPD (DI)(AX*8), Y4
	VFMADD231PD (R8)(AX*8), Y0, Y4
	VFMADD231PD (R9)(AX*8), Y1, Y4
	VFMADD231PD (R10)(AX*8), Y2, Y4
	VFMADD231PD (R11)(AX*8), Y3, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX

axpy4_tail1:
	CMPQ AX, CX
	JGE  axpy4_done
	VMOVSD (DI)(AX*8), X4
	VFMADD231SD (R8)(AX*8), X0, X4
	VFMADD231SD (R9)(AX*8), X1, X4
	VFMADD231SD (R10)(AX*8), X2, X4
	VFMADD231SD (R11)(AX*8), X3, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP  axpy4_tail1

axpy4_done:
	VZEROUPPER
	RET

// func axpy1AVX2(dst, b []float64, a float64)
TEXT ·axpy1AVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ b_base+24(FP), R8
	VBROADCASTSD a+48(FP), Y0
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $~7, DX

axpy1_loop8:
	CMPQ AX, DX
	JGE  axpy1_tail4
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VFMADD231PD (R8)(AX*8), Y0, Y4
	VFMADD231PD 32(R8)(AX*8), Y0, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  axpy1_loop8

axpy1_tail4:
	MOVQ CX, DX
	ANDQ $~3, DX
	CMPQ AX, DX
	JGE  axpy1_tail1
	VMOVUPD (DI)(AX*8), Y4
	VFMADD231PD (R8)(AX*8), Y0, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX

axpy1_tail1:
	CMPQ AX, CX
	JGE  axpy1_done
	VMOVSD (DI)(AX*8), X4
	VFMADD231SD (R8)(AX*8), X0, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP  axpy1_tail1

axpy1_done:
	VZEROUPPER
	RET

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

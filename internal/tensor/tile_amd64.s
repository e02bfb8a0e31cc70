//go:build amd64 && !purego

#include "textflag.h"

// tile8x16 is the register-tiled GEMM micro-kernel: an 8-row by 16-column
// block of the output lives in sixteen ZMM accumulators (row r in Z(2r) and
// Z(2r+1)) for the whole k loop, so dst is read at most once and written once
// per call instead of once per four k.
//
// The arithmetic is the axpy rule unchanged: a lane is one output column, each
// k contributes one fused multiply-add (VFMADD231PD, acc = fl(a·b + acc),
// rounded once), and k only ever ascends, so a lane runs exactly the chain of
// the Go reference (math.FMA) for its output element.
//
// The B panel is packed: 16 consecutive float64 per k, zero-padded past the
// matrix edge, so its loads need no mask. Only dst is touched through the
// opmasks (K1: columns 0-7, K2: columns 8-15); a masked-off lane is neither
// loaded nor stored, and the memory behind it may not even be mapped. A is
// read one element at a time through two byte strides, which is what lets one
// kernel serve a@b (aStep 8, aRow one matrix row) and aᵀ@b (aStep one matrix
// row, aRow 8). Only AVX-512F instructions are used (KMOVW, VPXORQ — not the
// BW/DQ forms KMOVQ, VXORPD), and VZEROUPPER precedes RET as in the axpy
// kernels.
//
// A non-nil bias is a row of sixteen addends for the tile's columns, read
// through the same opmasks, turned from -0 to +0 by adding +0, and added to
// every row of the tile before the store: (chain) + (bias + 0), the add the
// row-vector sweep makes behind the axpy kernels. The caller passes it on the
// last k block, and a row of zeros there when the product has no bias, so a
// chain that an underflowing product left at -0 is stored as +0 (tile.go).

// One row of the tile for one k: broadcast the coefficient and fuse its
// products with both halves of the B row into the row's two accumulators.
#define TILE_ROW(amem, acc0, acc1) \
	VBROADCASTSD amem, Z18   \
	VFMADD231PD  Z16, Z18, acc0 \
	VFMADD231PD  Z17, Z18, acc1

#define TILE_LOAD(acc0, acc1) \
	VMOVUPD.Z (DI), K1, acc0   \
	VMOVUPD.Z 64(DI), K2, acc1 \
	ADDQ      DX, DI

#define TILE_BIAS(acc0, acc1) \
	VADDPD Z16, acc0, acc0 \
	VADDPD Z17, acc1, acc1

#define TILE_STORE(acc0, acc1) \
	VMOVUPD acc0, K1, (DI)   \
	VMOVUPD acc1, K2, 64(DI) \
	ADDQ    DX, DI

// func tile8x16(dst *float64, ldd uintptr, a *float64, aRow, aStep uintptr, panel *float64, kc int, mask uint32, accumulate bool, bias *float64)
TEXT ·tile8x16(SB), NOSPLIT, $0-72
	MOVQ  dst+0(FP), DI
	MOVQ  ldd+8(FP), DX
	MOVQ  a+16(FP), SI
	MOVQ  aRow+24(FP), R8
	MOVQ  aStep+32(FP), R12
	MOVQ  panel+40(FP), BX
	MOVQ  kc+48(FP), CX
	MOVL  mask+56(FP), AX
	KMOVW AX, K1
	SHRL  $8, AX
	KMOVW AX, K2
	LEAQ  (R8)(R8*2), R9  // 3·aRow
	LEAQ  (R8)(R8*4), R10 // 5·aRow
	LEAQ  (R9)(R8*4), R11 // 7·aRow
	MOVQ  DI, R13         // dst is walked twice: load, then store

	MOVBLZX accumulate+60(FP), AX
	TESTL   AX, AX
	JNZ     tile_load

	// First k block: every chain starts at +0.
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	JMP    tile_k

	// Later k block: every chain resumes from the value the previous block
	// stored.
tile_load:
	TILE_LOAD(Z0, Z1)
	TILE_LOAD(Z2, Z3)
	TILE_LOAD(Z4, Z5)
	TILE_LOAD(Z6, Z7)
	TILE_LOAD(Z8, Z9)
	TILE_LOAD(Z10, Z11)
	TILE_LOAD(Z12, Z13)
	TILE_LOAD(Z14, Z15)
	MOVQ R13, DI

tile_k:
	VMOVUPD (BX), Z16
	VMOVUPD 64(BX), Z17
	TILE_ROW((SI), Z0, Z1)
	TILE_ROW((SI)(R8*1), Z2, Z3)
	TILE_ROW((SI)(R8*2), Z4, Z5)
	TILE_ROW((SI)(R9*1), Z6, Z7)
	TILE_ROW((SI)(R8*4), Z8, Z9)
	TILE_ROW((SI)(R10*1), Z10, Z11)
	TILE_ROW((SI)(R9*2), Z12, Z13)
	TILE_ROW((SI)(R11*1), Z14, Z15)
	ADDQ R12, SI
	ADDQ $128, BX
	DECQ CX
	JNZ  tile_k

	MOVQ  bias+64(FP), AX
	TESTQ AX, AX
	JZ    tile_store
	VMOVUPD.Z (AX), K1, Z16
	VMOVUPD.Z 64(AX), K2, Z17
	VPXORQ    Z18, Z18, Z18
	VADDPD    Z18, Z16, Z16
	VADDPD    Z18, Z17, Z17
	TILE_BIAS(Z0, Z1)
	TILE_BIAS(Z2, Z3)
	TILE_BIAS(Z4, Z5)
	TILE_BIAS(Z6, Z7)
	TILE_BIAS(Z8, Z9)
	TILE_BIAS(Z10, Z11)
	TILE_BIAS(Z12, Z13)
	TILE_BIAS(Z14, Z15)

tile_store:
	TILE_STORE(Z0, Z1)
	TILE_STORE(Z2, Z3)
	TILE_STORE(Z4, Z5)
	TILE_STORE(Z6, Z7)
	TILE_STORE(Z8, Z9)
	TILE_STORE(Z10, Z11)
	TILE_STORE(Z12, Z13)
	TILE_STORE(Z14, Z15)
	VZEROUPPER
	RET

// func packPanel16(dst, src *float64, stride uintptr, kc int, mask uint32)
//
// packPanel16 copies kc rows of 16 float64, stride bytes apart at src, into
// 128-byte rows at dst; a column whose mask bit is clear is not read and is
// stored as zero. While it copies one panel it asks for the next one — the
// same rows' following 128 bytes — to be brought into L2: the rows of a wide
// b lie a page or more apart, which the hardware prefetchers do not follow.
TEXT ·packPanel16(SB), NOSPLIT, $0-36
	MOVQ  dst+0(FP), DI
	MOVQ  src+8(FP), SI
	MOVQ  stride+16(FP), DX
	MOVQ  kc+24(FP), CX
	MOVL  mask+32(FP), AX
	KMOVW AX, K1
	SHRL  $8, AX
	KMOVW AX, K2

pack_k:
	VMOVUPD.Z  (SI), K1, Z0
	VMOVUPD.Z  64(SI), K2, Z1
	PREFETCHT1 128(SI)
	PREFETCHT1 192(SI)
	VMOVUPD    Z0, (DI)
	VMOVUPD    Z1, 64(DI)
	ADDQ       DX, SI
	ADDQ       $128, DI
	DECQ       CX
	JNZ        pack_k
	VZEROUPPER
	RET

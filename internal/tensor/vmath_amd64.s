//go:build amd64 && !purego

#include "textflag.h"

// Exact lane-wise elementwise kernels for AVX-512: exp, erf, the four GELU
// forms built on them, and the Adam sweep. The rule is the tile's, applied per
// element: a lane is one element and runs the scalar code's operations in the
// scalar code's order, so it ends in the scalar code's bits.
//
//   - erf is vmath.go's erf, math/erf.go with each Horner step of its
//     polynomials fused: one VFMADD213PD, acc = fl(acc·t + c), where the Go
//     writes math.FMA. Every other x*y + z (x + x·y, the tail's exponent
//     argument) is a rounded VMULPD followed by a rounded VADDPD, as the
//     amd64 compiler renders it (it does not fuse; TestGoDoesNotFuseMulAdd),
//     and divisions are VDIVPD.
//   - exp is math.archExp's FMA path instruction for instruction, fused
//     exactly where that assembly fuses (the two VFNMADD231 reductions, the
//     seven VFMADD213 Taylor terms, the last squaring step) and nowhere else.
//   - Adam is mul, add, div and sqrt, each correctly rounded by IEEE 754.
//
// A lane whose scalar code leaves the straight-line path (exp of a non-finite,
// overflowing or denormal-result argument; erf of a NaN or of |y| < 2**-28) is
// not computed here. Every entry point works on whole vectors, the last one
// masked to the elements that remain, stops in front of the first vector that
// holds such a lane, and returns how many elements it finished; the Go
// wrapper runs that vector through the scalar expression and calls again. A
// masked-off lane is neither loaded nor stored. Only AVX-512F and FMA
// instructions are used, and VZEROUPPER precedes every RET to Go code.

// Doubles are addressed as vm<>+NAME(SB) through an embedded broadcast.
#define LOG2E     0   // exp: log2(e)
#define LN2U      8   // exp: upper half of ln 2
#define LN2L      16  // exp: lower half of ln 2
#define OVERFLOW  24  // exp: above this the result is +Inf
#define SIXTEENTH 32
#define HALF      40
#define ONE       48
#define TWO       56
#define C3        64  // exp: Taylor coefficients 1/3! .. 1/8!
#define C4        72
#define C5        80
#define C6        88
#define C7        96
#define C8        104
#define EXPLO     112 // exp: int64 0x3FE, biased exponent minus one
#define EXPSPAN   120 // exp: int64 0x7FD, the largest valid (biased exponent - 1)
#define EXPBIAS   128 // exp: int64 0x3FF
#define ABSMASK   136
#define SIGNMASK  144
#define HIMASK    152 // erf: the high word of x, its "pseudo-single" z
#define SMALL     160 // erf: 2**-28
#define B084375   168 // erf: branch seams
#define B125      176
#define INV035    184
#define SIX       192
#define C05625    200
#define ERX       208
#define INVSQRT2  216 // GELU: erf argument scale
#define NEGHALF   224
#define SQRT2PI   232
#define PP0       240 // erf, |y| < 0.84375
#define PP1       248
#define PP2       256
#define PP3       264
#define PP4       272
#define QQ1       280
#define QQ2       288
#define QQ3       296
#define QQ4       304
#define QQ5       312
#define PA0       320 // erf, 0.84375 <= |y| < 1.25
#define PA1       328
#define PA2       336
#define PA3       344
#define PA4       352
#define PA5       360
#define PA6       368
#define QA1       376
#define QA2       384
#define QA3       392
#define QA4       400
#define QA5       408
#define QA6       416
#define RA0       424 // erfc, 1.25 <= |y| < 1/0.35
#define RA1       432
#define RA2       440
#define RA3       448
#define RA4       456
#define RA5       464
#define RA6       472
#define RA7       480
#define SA1       488
#define SA2       496
#define SA3       504
#define SA4       512
#define SA5       520
#define SA6       528
#define SA7       536
#define SA8       544
#define RB0       552 // erfc, 1/0.35 <= |y| < 6
#define RB1       560
#define RB2       568
#define RB3       576
#define RB4       584
#define RB5       592
#define RB6       600
#define SB1       608
#define SB2       616
#define SB3       624
#define SB4       632
#define SB5       640
#define SB6       648
#define SB7       656

// The exp constants are written as math/exp_amd64.s writes them, so that the
// assembler rounds the same digits; the erf constants are the bit patterns
// math/erf.go gives beside each of its decimal literals.
DATA vm<>+LOG2E(SB)/8, $1.4426950408889634073599246810018920
DATA vm<>+LN2U(SB)/8, $0.69314718055966295651160180568695068359375
DATA vm<>+LN2L(SB)/8, $0.28235290563031577122588448175013436025525412068e-12
DATA vm<>+OVERFLOW(SB)/8, $7.09782712893384e+02
DATA vm<>+SIXTEENTH(SB)/8, $0.0625
DATA vm<>+HALF(SB)/8, $0.5
DATA vm<>+ONE(SB)/8, $1.0
DATA vm<>+TWO(SB)/8, $2.0
DATA vm<>+C3(SB)/8, $1.6666666666666666667e-1
DATA vm<>+C4(SB)/8, $4.1666666666666666667e-2
DATA vm<>+C5(SB)/8, $8.3333333333333333333e-3
DATA vm<>+C6(SB)/8, $1.3888888888888888889e-3
DATA vm<>+C7(SB)/8, $1.9841269841269841270e-4
DATA vm<>+C8(SB)/8, $2.4801587301587301587e-5
DATA vm<>+EXPLO(SB)/8, $0x3FE
DATA vm<>+EXPSPAN(SB)/8, $0x7FD
DATA vm<>+EXPBIAS(SB)/8, $0x3FF
DATA vm<>+ABSMASK(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA vm<>+SIGNMASK(SB)/8, $0x8000000000000000
DATA vm<>+HIMASK(SB)/8, $0xFFFFFFFF00000000
DATA vm<>+SMALL(SB)/8, $0x3E30000000000000    // 2**-28
DATA vm<>+B084375(SB)/8, $0.84375
DATA vm<>+B125(SB)/8, $1.25
DATA vm<>+INV035(SB)/8, $0x4006DB6DB6DB6DB7   // the constant expression 1/0.35
DATA vm<>+SIX(SB)/8, $6.0
DATA vm<>+C05625(SB)/8, $0.5625
DATA vm<>+ERX(SB)/8, $0x3FEB0AC160000000      // 8.45062911510467529297e-01
DATA vm<>+INVSQRT2(SB)/8, $0x3FE6A09E667F3BCD // 0.7071067811865476
DATA vm<>+NEGHALF(SB)/8, $0xBFE0000000000000  // -0.5
DATA vm<>+SQRT2PI(SB)/8, $0x40040D931FF62705  // math.Sqrt(2 * math.Pi)
DATA vm<>+PP0(SB)/8, $0x3FC06EBA8214DB68
DATA vm<>+PP1(SB)/8, $0xBFD4CD7D691CB913
DATA vm<>+PP2(SB)/8, $0xBF9D2A51DBD7194F
DATA vm<>+PP3(SB)/8, $0xBF77A291236668E4
DATA vm<>+PP4(SB)/8, $0xBEF8EAD6120016AC
DATA vm<>+QQ1(SB)/8, $0x3FD97779CDDADC09
DATA vm<>+QQ2(SB)/8, $0x3FB0A54C5536CEBA
DATA vm<>+QQ3(SB)/8, $0x3F74D022C4D36B0F
DATA vm<>+QQ4(SB)/8, $0x3F215DC9221C1A10
DATA vm<>+QQ5(SB)/8, $0xBED09C4342A26120
DATA vm<>+PA0(SB)/8, $0xBF6359B8BEF77538
DATA vm<>+PA1(SB)/8, $0x3FDA8D00AD92B34D
DATA vm<>+PA2(SB)/8, $0xBFD7D240FBB8C3F1
DATA vm<>+PA3(SB)/8, $0x3FD45FCA805120E4
DATA vm<>+PA4(SB)/8, $0xBFBC63983D3E28EC
DATA vm<>+PA5(SB)/8, $0x3FA22A36599795EB
DATA vm<>+PA6(SB)/8, $0xBF61BF380A96073F
DATA vm<>+QA1(SB)/8, $0x3FBB3E6618EEE323
DATA vm<>+QA2(SB)/8, $0x3FE14AF092EB6F33
DATA vm<>+QA3(SB)/8, $0x3FB2635CD99FE9A7
DATA vm<>+QA4(SB)/8, $0x3FC02660E763351F
DATA vm<>+QA5(SB)/8, $0x3F8BEDC26B51DD1C
DATA vm<>+QA6(SB)/8, $0x3F888B545735151D
DATA vm<>+RA0(SB)/8, $0xBF843412600D6435
DATA vm<>+RA1(SB)/8, $0xBFE63416E4BA7360
DATA vm<>+RA2(SB)/8, $0xC0251E0441B0E726
DATA vm<>+RA3(SB)/8, $0xC04F300AE4CBA38D
DATA vm<>+RA4(SB)/8, $0xC0644CB184282266
DATA vm<>+RA5(SB)/8, $0xC067135CEBCCABB2
DATA vm<>+RA6(SB)/8, $0xC054526557E4D2F2
DATA vm<>+RA7(SB)/8, $0xC023A0EFC69AC25C
DATA vm<>+SA1(SB)/8, $0x4033A6B9BD707687
DATA vm<>+SA2(SB)/8, $0x4061350C526AE721
DATA vm<>+SA3(SB)/8, $0x407B290DD58A1A71
DATA vm<>+SA4(SB)/8, $0x40842B1921EC2868
DATA vm<>+SA5(SB)/8, $0x407AD02157700314
DATA vm<>+SA6(SB)/8, $0x405B28A3EE48AE2C
DATA vm<>+SA7(SB)/8, $0x401A47EF8E484A93
DATA vm<>+SA8(SB)/8, $0xBFAEEFF2EE749A62
DATA vm<>+RB0(SB)/8, $0xBF84341239E86F4A
DATA vm<>+RB1(SB)/8, $0xBFE993BA70C285DE
DATA vm<>+RB2(SB)/8, $0xC031C209555F995A
DATA vm<>+RB3(SB)/8, $0xC064145D43C5ED98
DATA vm<>+RB4(SB)/8, $0xC083EC881375F228
DATA vm<>+RB5(SB)/8, $0xC09004616A2E5992
DATA vm<>+RB6(SB)/8, $0xC07E384E9BDC383F
DATA vm<>+SB1(SB)/8, $0x403E568B261D5190
DATA vm<>+SB2(SB)/8, $0x40745CAE221B9F0A
DATA vm<>+SB3(SB)/8, $0x409802EB189D5118
DATA vm<>+SB4(SB)/8, $0x40A8FFB7688C246A
DATA vm<>+SB5(SB)/8, $0x40A3F219CEDF3BE6
DATA vm<>+SB6(SB)/8, $0x407DA874E79FE763
DATA vm<>+SB7(SB)/8, $0xC03670E242712D62
GLOBL vm<>(SB), RODATA, $664

// One Horner step, erf's math.FMA(acc, x, c): acc = fl(acc*x + c), rounded
// once.
#define HORNER(c, x, acc) \
	VFMADD213PD.BCST vm<>+c(SB), x, acc

// LANE_MASK sets K7 to the elements that remain of n (R9) from index AX, at
// most eight, and jumps to done when none do. It clobbers BX, CX and DX.
#define LANE_MASK(done) \
	MOVQ    R9, CX  \
	SUBQ    AX, CX  \
	JLE     done    \
	MOVQ    $8, DX  \
	CMPQ    CX, DX  \
	CMOVQGT DX, CX  \
	MOVL    $1, BX  \
	SHLL    CX, BX  \
	DECL    BX      \
	KMOVW   BX, K7

// exp8 is math.archExp on eight lanes.
//
//	in:  Z0 = x, K7 = live lanes
//	out: Z0 = exp(x) in every live lane not in K5; K5 = the live lanes the
//	     scalar code answers off its straight-line path (NaN, +Inf,
//	     x > Overflow, and results whose biased exponent leaves [1, 0x7FE])
//	clobbers Z24-Z26, K4
TEXT exp8<>(SB), NOSPLIT, $0-0
	VCMPPD.BCST       $0x16, vm<>+OVERFLOW(SB), Z0, K7, K5 // !(x <= Overflow)
	VMULPD.BCST       vm<>+LOG2E(SB), Z0, Z24
	VCVTPD2DQ         Z24, Y25                             // n = round-to-even(x*log2e)
	VCVTDQ2PD         Y25, Z24
	VFNMADD231PD.BCST vm<>+LN2U(SB), Z24, Z0               // x -= n*ln2, in two fused steps
	VFNMADD231PD.BCST vm<>+LN2L(SB), Z24, Z0
	VMULPD.BCST       vm<>+SIXTEENTH(SB), Z0, Z0
	VBROADCASTSD      vm<>+C8(SB), Z24
	VFMADD213PD.BCST  vm<>+C7(SB), Z0, Z24
	VFMADD213PD.BCST  vm<>+C6(SB), Z0, Z24
	VFMADD213PD.BCST  vm<>+C5(SB), Z0, Z24
	VFMADD213PD.BCST  vm<>+C4(SB), Z0, Z24
	VFMADD213PD.BCST  vm<>+C3(SB), Z0, Z24
	VFMADD213PD.BCST  vm<>+HALF(SB), Z0, Z24
	VFMADD213PD.BCST  vm<>+ONE(SB), Z0, Z24
	VMULPD            Z24, Z0, Z0                          // e**(x/16) - 1
	VADDPD.BCST       vm<>+TWO(SB), Z0, Z24                // four squarings: y = (y+2)*y
	VMULPD            Z24, Z0, Z0
	VADDPD.BCST       vm<>+TWO(SB), Z0, Z24
	VMULPD            Z24, Z0, Z0
	VADDPD.BCST       vm<>+TWO(SB), Z0, Z24
	VMULPD            Z24, Z0, Z0
	VADDPD.BCST       vm<>+TWO(SB), Z0, Z24
	VFMADD213PD.BCST  vm<>+ONE(SB), Z24, Z0
	VPMOVSXDQ         Y25, Z25
	VPADDQ.BCST       vm<>+EXPLO(SB), Z25, Z26
	VPCMPUQ.BCST      $6, vm<>+EXPSPAN(SB), Z26, K7, K4    // biased exponent outside [1, 0x7FE]
	KORW              K4, K5, K5
	VPADDQ.BCST       vm<>+EXPBIAS(SB), Z25, Z25
	VPSLLQ            $52, Z25, Z25
	VMULPD            Z25, Z0, Z0                          // fr * 2**n
	RET

// erf8 is vmath.go's erf on eight lanes.
//
//	in:  Z0 = y, K7 = live lanes
//	out: Z1 = erf(y) in every live lane not in K6; K6 = the live lanes left
//	     to the scalar code (NaN, |y| < 2**-28)
//	clobbers Z0, Z2-Z10, Z24-Z26, K1-K5
//
// A vector pays only for the branches its lanes need: each range's polynomial
// runs when its opmask is non-empty and its result is merged under that mask
// into a vector that starts as 1, the answer for |y| >= 6 (±Inf included).
// Lanes outside a branch's range enter it as a harmless in-range value, so no
// lane ever computes on garbage. The sign is ORed back at the end:
// -erx - P/Q is -(erx + P/Q) and r/x - 1 is -(1 - r/x) to the bit.
TEXT erf8<>(SB), NOSPLIT, $0-0
	VPANDQ.BCST  vm<>+ABSMASK(SB), Z0, Z2  // x = |y|
	VPANDQ.BCST  vm<>+SIGNMASK(SB), Z0, Z3
	VCMPPD.BCST  $0x11, vm<>+SMALL(SB), Z2, K7, K6
	VCMPPD       $0x03, Z2, Z2, K7, K4     // NaN
	KORW         K4, K6, K6
	VBROADCASTSD vm<>+ONE(SB), Z1
	VCMPPD.BCST  $0x11, vm<>+B084375(SB), Z2, K7, K1 // K1: x < 0.84375
	VCMPPD.BCST  $0x11, vm<>+B125(SB), Z2, K7, K4
	VCMPPD.BCST  $0x11, vm<>+SIX(SB), Z2, K7, K3
	KANDNW       K3, K4, K3                // K3: 1.25 <= x < 6
	KANDNW       K4, K1, K2                // K2: 0.84375 <= x < 1.25

	KORTESTW K1, K1
	JZ       erf_mid
	VMOVAPD.Z    Z2, K1, Z4                // x, 0 elsewhere
	VMULPD       Z4, Z4, Z5                // z = x*x
	VBROADCASTSD vm<>+PP4(SB), Z6
	HORNER(PP3, Z5, Z6)
	HORNER(PP2, Z5, Z6)
	HORNER(PP1, Z5, Z6)
	HORNER(PP0, Z5, Z6)                    // r
	VBROADCASTSD vm<>+QQ5(SB), Z7
	HORNER(QQ4, Z5, Z7)
	HORNER(QQ3, Z5, Z7)
	HORNER(QQ2, Z5, Z7)
	HORNER(QQ1, Z5, Z7)
	HORNER(ONE, Z5, Z7)                    // s
	VDIVPD       Z7, Z6, Z6                // y = r/s
	VMULPD       Z6, Z4, Z6
	VADDPD       Z6, Z4, K1, Z1            // x + x*y

erf_mid:
	KORTESTW K2, K2
	JZ       erf_tail
	VMOVAPD.Z    Z2, K2, Z4
	VSUBPD.BCST  vm<>+ONE(SB), Z4, Z4      // s = x - 1
	VBROADCASTSD vm<>+PA6(SB), Z6
	HORNER(PA5, Z4, Z6)
	HORNER(PA4, Z4, Z6)
	HORNER(PA3, Z4, Z6)
	HORNER(PA2, Z4, Z6)
	HORNER(PA1, Z4, Z6)
	HORNER(PA0, Z4, Z6)                    // P
	VBROADCASTSD vm<>+QA6(SB), Z7
	HORNER(QA5, Z4, Z7)
	HORNER(QA4, Z4, Z7)
	HORNER(QA3, Z4, Z7)
	HORNER(QA2, Z4, Z7)
	HORNER(QA1, Z4, Z7)
	HORNER(ONE, Z4, Z7)                    // Q
	VDIVPD       Z7, Z6, Z6
	VADDPD.BCST  vm<>+ERX(SB), Z6, K2, Z1  // erx + P/Q

erf_tail:
	KORTESTW K3, K3
	JZ       erf_sign
	VBROADCASTSD vm<>+TWO(SB), Z4
	VMOVAPD      Z2, K3, Z4                // x, 2 elsewhere
	VMULPD       Z4, Z4, Z5
	VBROADCASTSD vm<>+ONE(SB), Z8
	VDIVPD       Z5, Z8, Z5                // s = 1/(x*x)
	VCMPPD.BCST  $0x1D, vm<>+INV035(SB), Z4, K3, K5 // K5: x >= 1/0.35
	VBROADCASTSD vm<>+RA7(SB), Z6
	HORNER(RA6, Z5, Z6)
	HORNER(RA5, Z5, Z6)
	HORNER(RA4, Z5, Z6)
	HORNER(RA3, Z5, Z6)
	HORNER(RA2, Z5, Z6)
	HORNER(RA1, Z5, Z6)
	HORNER(RA0, Z5, Z6)                    // R
	VBROADCASTSD vm<>+SA8(SB), Z7
	HORNER(SA7, Z5, Z7)
	HORNER(SA6, Z5, Z7)
	HORNER(SA5, Z5, Z7)
	HORNER(SA4, Z5, Z7)
	HORNER(SA3, Z5, Z7)
	HORNER(SA2, Z5, Z7)
	HORNER(SA1, Z5, Z7)
	HORNER(ONE, Z5, Z7)                    // S
	KORTESTW K5, K5
	JZ       erf_exp
	VBROADCASTSD vm<>+RB6(SB), Z9
	HORNER(RB5, Z5, Z9)
	HORNER(RB4, Z5, Z9)
	HORNER(RB3, Z5, Z9)
	HORNER(RB2, Z5, Z9)
	HORNER(RB1, Z5, Z9)
	HORNER(RB0, Z5, Z9)
	VBROADCASTSD vm<>+SB7(SB), Z10
	HORNER(SB6, Z5, Z10)
	HORNER(SB5, Z5, Z10)
	HORNER(SB4, Z5, Z10)
	HORNER(SB3, Z5, Z10)
	HORNER(SB2, Z5, Z10)
	HORNER(SB1, Z5, Z10)
	HORNER(ONE, Z5, Z10)
	VMOVAPD      Z9, K5, Z6
	VMOVAPD      Z10, K5, Z7

erf_exp:
	VDIVPD      Z7, Z6, Z6                 // R/S
	VPANDQ.BCST vm<>+HIMASK(SB), Z4, Z7    // z
	VSUBPD      Z4, Z7, Z9
	VADDPD      Z4, Z7, Z10
	VMULPD      Z10, Z9, Z9
	VADDPD      Z6, Z9, Z9                 // (z-x)*(z+x) + R/S
	VMULPD      Z7, Z7, Z0
	VPXORQ.BCST vm<>+SIGNMASK(SB), Z0, Z0
	VSUBPD.BCST vm<>+C05625(SB), Z0, Z0    // -z*z - 0.5625
	CALL        exp8<>(SB)
	KORW        K5, K6, K6                 // never set for these arguments; kept honest
	VMOVAPD     Z0, Z10
	VMOVAPD     Z9, Z0
	CALL        exp8<>(SB)
	KORW        K5, K6, K6
	VMULPD      Z0, Z10, Z0                // r
	VDIVPD      Z4, Z0, Z0                 // r/x
	VSUBPD      Z0, Z8, K3, Z1             // 1 - r/x

erf_sign:
	VPORQ Z3, Z1, Z1
	RET

// func erfAVX512(dst, x []float64) int
//
// dst[i] = erf(x[i]) over len(dst) elements; returns how many it finished.
TEXT ·erfAVX512(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R9
	MOVQ x_base+24(FP), SI
	XORQ AX, AX

erf_loop:
	LANE_MASK(erf_done)
	VMOVUPD.Z (SI)(AX*8), K7, Z0
	CALL      erf8<>(SB)
	KORTESTW  K6, K6
	JNZ       erf_done
	VMOVUPD   Z1, K7, (DI)(AX*8)
	ADDQ      $8, AX
	JMP       erf_loop

erf_done:
	CMPQ    AX, R9
	CMOVQGT R9, AX
	MOVQ    AX, ret+48(FP)
	VZEROUPPER
	RET

// func expSubAVX512(dst, x []float64, sub float64) int
//
// dst[i] = exp(x[i] - sub) over len(dst) elements; returns how many it
// finished.
TEXT ·expSubAVX512(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), R9
	MOVQ         x_base+24(FP), SI
	VBROADCASTSD sub+48(FP), Z16
	XORQ         AX, AX

exps_loop:
	LANE_MASK(exps_done)
	VMOVUPD.Z (SI)(AX*8), K7, Z0
	VSUBPD    Z16, Z0, Z0
	CALL      exp8<>(SB)
	KORTESTW  K5, K5
	JNZ       exps_done
	VMOVUPD   Z0, K7, (DI)(AX*8)
	ADDQ      $8, AX
	JMP       exps_loop

exps_done:
	CMPQ    AX, R9
	CMOVQGT R9, AX
	MOVQ    AX, ret+56(FP)
	VZEROUPPER
	RET

// func geluAVX512(dst, keep, x []float64) int
//
// t = 1 + erf(x[i]/√2); keep[i] = t unless keep is nil; dst[i] = 0.5·x[i]·t,
// over len(dst) elements; returns how many it finished.
TEXT ·geluAVX512(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R9
	MOVQ keep_base+24(FP), R8
	MOVQ x_base+48(FP), SI
	XORQ AX, AX

gelu_loop:
	LANE_MASK(gelu_done)
	VMOVUPD.Z   (SI)(AX*8), K7, Z16
	VMULPD.BCST vm<>+INVSQRT2(SB), Z16, Z0
	CALL        erf8<>(SB)
	KORTESTW    K6, K6
	JNZ         gelu_done
	VADDPD.BCST vm<>+ONE(SB), Z1, Z17
	TESTQ       R8, R8
	JZ          gelu_nokeep
	VMOVUPD     Z17, K7, (R8)(AX*8)

gelu_nokeep:
	VMULPD.BCST vm<>+HALF(SB), Z16, Z18
	VMULPD      Z17, Z18, Z18
	VMOVUPD     Z18, K7, (DI)(AX*8)
	ADDQ        $8, AX
	JMP         gelu_loop

gelu_done:
	CMPQ    AX, R9
	CMOVQGT R9, AX
	MOVQ    AX, ret+72(FP)
	VZEROUPPER
	RET

// func geluGradAVX512(dst, x, keep, g []float64) int
//
// dst[i] = g[i]·(0.5·t + x[i]·exp(-0.5·x[i]·x[i])/√(2π)) with t = keep[i], or
// 1 + erf(x[i]/√2) when keep is nil, over len(dst) elements; returns how many
// it finished. Every operand of a vector is loaded before dst is stored, so
// dst may be any of them.
TEXT ·geluGradAVX512(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R9
	MOVQ x_base+24(FP), SI
	MOVQ keep_base+48(FP), R8
	MOVQ g_base+72(FP), R10
	XORQ AX, AX

ggrad_loop:
	LANE_MASK(ggrad_done)
	VMOVUPD.Z (SI)(AX*8), K7, Z16
	VMOVUPD.Z (R10)(AX*8), K7, Z17
	TESTQ     R8, R8
	JZ        ggrad_erf
	VMOVUPD.Z (R8)(AX*8), K7, Z18
	JMP       ggrad_pdf

ggrad_erf:
	VMULPD.BCST vm<>+INVSQRT2(SB), Z16, Z0
	CALL        erf8<>(SB)
	KORTESTW    K6, K6
	JNZ         ggrad_done
	VADDPD.BCST vm<>+ONE(SB), Z1, Z18

ggrad_pdf:
	VMULPD.BCST vm<>+HALF(SB), Z18, Z18    // cdf
	VMULPD.BCST vm<>+NEGHALF(SB), Z16, Z0
	VMULPD      Z16, Z0, Z0
	CALL        exp8<>(SB)
	KORTESTW    K5, K5
	JNZ         ggrad_done
	VDIVPD.BCST vm<>+SQRT2PI(SB), Z0, Z0   // pdf
	VMULPD      Z0, Z16, Z0
	VADDPD      Z0, Z18, Z0
	VMULPD      Z0, Z17, Z0
	VMOVUPD     Z0, K7, (DI)(AX*8)
	ADDQ        $8, AX
	JMP         ggrad_loop

ggrad_done:
	CMPQ    AX, R9
	CMOVQGT R9, AX
	MOVQ    AX, ret+96(FP)
	VZEROUPPER
	RET

// func adamAVX512(w, g, m, v []float64, c *AdamCoef)
//
// One Adam update of len(w) weights, gradients cleared. Every step is the
// scalar sweep's: m = beta1·m + (1-beta1)·g; v = beta2·v + ((1-beta2)·g)·g;
// w -= (lr·(m/bc1)) / (sqrt(v/bc2) + eps).
TEXT ·adamAVX512(SB), NOSPLIT, $0-104
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), R9
	MOVQ         g_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R10
	MOVQ         c+96(FP), R11
	VBROADCASTSD 0(R11), Z8           // LR
	VBROADCASTSD 8(R11), Z9           // Beta1
	VBROADCASTSD 16(R11), Z10         // Beta2
	VBROADCASTSD 24(R11), Z11         // Eps
	VBROADCASTSD 32(R11), Z12         // BC1
	VBROADCASTSD 40(R11), Z13         // BC2
	VBROADCASTSD vm<>+ONE(SB), Z15
	VSUBPD       Z9, Z15, Z14         // 1 - beta1
	VSUBPD       Z10, Z15, Z15        // 1 - beta2
	VPXORQ       Z7, Z7, Z7
	XORQ         AX, AX

adam_loop:
	LANE_MASK(adam_done)
	VMOVUPD.Z (SI)(AX*8), K7, Z0
	VMOVUPD.Z (R8)(AX*8), K7, Z1
	VMOVUPD.Z (R10)(AX*8), K7, Z2
	VMOVUPD.Z (DI)(AX*8), K7, Z3
	VMULPD    Z9, Z1, Z1
	VMULPD    Z14, Z0, Z4
	VADDPD    Z4, Z1, Z1               // m
	VMULPD    Z10, Z2, Z2
	VMULPD    Z15, Z0, Z4
	VMULPD    Z0, Z4, Z4
	VADDPD    Z4, Z2, Z2               // v
	VMOVUPD   Z1, K7, (R8)(AX*8)
	VMOVUPD   Z2, K7, (R10)(AX*8)
	VDIVPD    Z12, Z1, Z1              // mHat
	VDIVPD    Z13, Z2, Z2              // vHat
	VMULPD    Z8, Z1, Z1
	VSQRTPD   Z2, Z2
	VADDPD    Z11, Z2, Z2
	VDIVPD    Z2, Z1, Z1
	VSUBPD    Z1, Z3, Z3
	VMOVUPD   Z3, K7, (DI)(AX*8)
	VMOVUPD   Z7, K7, (SI)(AX*8)
	ADDQ      $8, AX
	JMP       adam_loop

adam_done:
	VZEROUPPER
	RET

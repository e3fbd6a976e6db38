//go:build amd64

#include "textflag.h"

// Vector bodies of the conv-unit kernels in kernels_conv.go. All of them
// are selects, copies or one add per element, so lane structure is free;
// what each body must get right is which operand a comparison returns on
// NaN and on ±0. x86 MAX(a, b) is "a > b ? a : b": it returns b when either
// operand is NaN and when both are zeros. Go's operand order is the reverse
// of Intel's, so `VMAXPS b, a, dst` computes MAX(a, b).

// Lane offsets of the argmax kernels' running index vectors. VSHUFPS works
// within 128-bit lanes, so after the even/odd split lane l of a YMM holds
// outputs {2l, 2l+1, 4+2l, 5+2l} (ZMM: {2l, 2l+1, 8+2l, 9+2l}); the index
// vector starts at twice those and the final quad permute restores order
// for values and indices alike.
DATA poolIdx8<>+0(SB)/4, $0
DATA poolIdx8<>+4(SB)/4, $2
DATA poolIdx8<>+8(SB)/4, $8
DATA poolIdx8<>+12(SB)/4, $10
DATA poolIdx8<>+16(SB)/4, $4
DATA poolIdx8<>+20(SB)/4, $6
DATA poolIdx8<>+24(SB)/4, $12
DATA poolIdx8<>+28(SB)/4, $14
GLOBL poolIdx8<>(SB), RODATA|NOPTR, $32

DATA poolIdx16<>+0(SB)/4, $0
DATA poolIdx16<>+4(SB)/4, $2
DATA poolIdx16<>+8(SB)/4, $16
DATA poolIdx16<>+12(SB)/4, $18
DATA poolIdx16<>+16(SB)/4, $4
DATA poolIdx16<>+20(SB)/4, $6
DATA poolIdx16<>+24(SB)/4, $20
DATA poolIdx16<>+28(SB)/4, $22
DATA poolIdx16<>+32(SB)/4, $8
DATA poolIdx16<>+36(SB)/4, $10
DATA poolIdx16<>+40(SB)/4, $24
DATA poolIdx16<>+44(SB)/4, $26
DATA poolIdx16<>+48(SB)/4, $12
DATA poolIdx16<>+52(SB)/4, $14
DATA poolIdx16<>+56(SB)/4, $28
DATA poolIdx16<>+60(SB)/4, $30
GLOBL poolIdx16<>(SB), RODATA|NOPTR, $64

// Quad order that undoes the ZMM even/odd split: output quad j comes from
// quad 2j (j < 4) or 2(j-4)+1.
DATA poolQuads<>+0(SB)/8, $0
DATA poolQuads<>+8(SB)/8, $2
DATA poolQuads<>+16(SB)/8, $4
DATA poolQuads<>+24(SB)/8, $6
DATA poolQuads<>+32(SB)/8, $1
DATA poolQuads<>+40(SB)/8, $3
DATA poolQuads<>+48(SB)/8, $5
DATA poolQuads<>+56(SB)/8, $7
GLOBL poolQuads<>(SB), RODATA|NOPTR, $64

// Macros of the direct convolution's epilogue (conv_tile.go; its bodies
// are at the end of the file). They name its arguments, so they are
// defined ahead of every TEXT block, where vet does not tie them to
// another function's frame. DX holds the plane's bias bits doubled — zero
// for ±0 and for a nil bias, where the scalar body copies instead of
// adding — and the bias itself is broadcast in Z31/Y15. The add takes the
// C value first, as the scalar v + b does; the ReLU is MAX(v, +0) as in
// reluAVX2/reluAVX512; the pool folds the four taps from −Inf in scan
// order as maxPool2x2AVX2/AVX512 do.

// CBIAS loads the bias of the plane R8 points at (R8 = 0: no bias) and
// steps R8 to the next one.
#define CBIAS(reg, none) \
	XORL         DX, DX; \
	TESTQ        R8, R8; \
	JZ           none;   \
	MOVL         (R8), DX; \
	VBROADCASTSS (R8), reg; \
	ADDL         DX, DX; \
	ADDQ         $4, R8; \
none:

// ZEPI / YEPI / XEPI are the epilogue on one vector or one float v.
#define ZEPI(v, noadd, norelu) \
	TESTL  DX, DX;           \
	JZ     noadd;            \
	VADDPS Z31, v, v;        \
noadd:                       \
	CMPB   relu+128(FP), $0; \
	JEQ    norelu;           \
	VMAXPS Z0, v, v;         \
norelu:

#define YEPI(v, noadd, norelu) \
	TESTL  DX, DX;           \
	JZ     noadd;            \
	VADDPS Y15, v, v;        \
noadd:                       \
	CMPB   relu+128(FP), $0; \
	JEQ    norelu;           \
	VMAXPS Y0, v, v;         \
norelu:

#define XEPI(v, noadd, norelu) \
	TESTL  DX, DX;           \
	JZ     noadd;            \
	VADDSS X15, v, v;        \
noadd:                       \
	CMPB   relu+128(FP), $0; \
	JEQ    norelu;           \
	VMAXSS X0, v, v;         \
norelu:

// ZEPI4 / YEPI4 / XEPI4 are the epilogue on the four runs of a pooled
// step: registers 1-2 the upper row, 3-4 the lower.
#define ZEPI4(noadd, norelu) \
	TESTL  DX, DX;           \
	JZ     noadd;            \
	VADDPS Z31, Z1, Z1;      \
	VADDPS Z31, Z2, Z2;      \
	VADDPS Z31, Z3, Z3;      \
	VADDPS Z31, Z4, Z4;      \
noadd:                       \
	CMPB   relu+128(FP), $0; \
	JEQ    norelu;           \
	VMAXPS Z0, Z1, Z1;       \
	VMAXPS Z0, Z2, Z2;       \
	VMAXPS Z0, Z3, Z3;       \
	VMAXPS Z0, Z4, Z4;       \
norelu:

#define YEPI4(noadd, norelu) \
	TESTL  DX, DX;           \
	JZ     noadd;            \
	VADDPS Y15, Y1, Y1;      \
	VADDPS Y15, Y2, Y2;      \
	VADDPS Y15, Y3, Y3;      \
	VADDPS Y15, Y4, Y4;      \
noadd:                       \
	CMPB   relu+128(FP), $0; \
	JEQ    norelu;           \
	VMAXPS Y0, Y1, Y1;       \
	VMAXPS Y0, Y2, Y2;       \
	VMAXPS Y0, Y3, Y3;       \
	VMAXPS Y0, Y4, Y4;       \
norelu:

#define XEPI4(noadd, norelu) \
	TESTL  DX, DX;           \
	JZ     noadd;            \
	VADDSS X15, X1, X1;      \
	VADDSS X15, X2, X2;      \
	VADDSS X15, X3, X3;      \
	VADDSS X15, X4, X4;      \
noadd:                       \
	CMPB   relu+128(FP), $0; \
	JEQ    norelu;           \
	VMAXSS X0, X1, X1;       \
	VMAXSS X0, X2, X2;       \
	VMAXSS X0, X3, X3;       \
	VMAXSS X0, X4, X4;       \
norelu:

// CSTRIDES loads the pointers and byte strides both bodies share: DI/SI
// the first plane of dst/src, R8 the bias, R10/R11 dstPlane/srcPlane,
// R12/R13 dstPitch/srcPitch, CX = n.
#define CSTRIDES \
	MOVQ dst_base+0(FP), DI;   \
	MOVQ src_base+24(FP), SI;  \
	MOVQ bias_base+48(FP), R8; \
	MOVQ dstPlane+80(FP), R10; \
	MOVQ srcPlane+88(FP), R11; \
	MOVQ dstPitch+104(FP), R12; \
	MOVQ srcPitch+112(FP), R13; \
	SHLQ $2, R10;              \
	SHLQ $2, R11;              \
	SHLQ $2, R12;              \
	SHLQ $2, R13;              \
	MOVQ n+120(FP), CX

// ZEPI4A is ZEPI4 for convStoreArgmaxAVX512's frame.
#define ZEPI4A(noadd, norelu) \
	TESTL  DX, DX;           \
	JZ     noadd;            \
	VADDPS Z31, Z1, Z1;      \
	VADDPS Z31, Z2, Z2;      \
	VADDPS Z31, Z3, Z3;      \
	VADDPS Z31, Z4, Z4;      \
noadd:                       \
	CMPB   relu+176(FP), $0; \
	JEQ    norelu;           \
	VMAXPS Z0, Z1, Z1;       \
	VMAXPS Z0, Z2, Z2;       \
	VMAXPS Z0, Z3, Z3;       \
	VMAXPS Z0, Z4, Z4;       \
norelu:

// UNPOOL16 is one step of unpoolAVX512: g, the winners and v in Z1-Z3,
// the offsets of the step's first sixteen columns in Z9; dy row 2r's 32
// columns come out in Z4/Z5, row 2r+1's in Z6/Z7.
#define UNPOOL16(norelu) \
	VADDPS    Z1, Z0, Z1;         \
	CMPB      relu+160(FP), $0;   \
	JEQ       norelu;             \
	VCMPPS    $0x1E, Z0, Z3, K4;  \
	VMOVAPS.Z Z1, K4, Z1;         \
norelu:                           \
	VPERMPS   Z1, Z20, Z22;       \
	VPERMPS   Z1, Z21, Z23;       \
	VPERMD    Z2, Z20, Z24;       \
	VPERMD    Z2, Z21, Z25;       \
	VPADDD    Z12, Z9, Z26;       \
	VPCMPEQD  Z9, Z24, K4;        \
	VMOVAPS.Z Z22, K4, Z4;        \
	VPCMPEQD  Z26, Z25, K4;       \
	VMOVAPS.Z Z23, K4, Z5;        \
	VPADDD    Z10, Z9, Z27;       \
	VPADDD    Z10, Z26, Z28;      \
	VPCMPEQD  Z27, Z24, K4;       \
	VMOVAPS.Z Z22, K4, Z6;        \
	VPCMPEQD  Z28, Z25, K4;       \
	VMOVAPS.Z Z23, K4, Z7

// YEPI4A is YEPI4 for convStoreArgmaxAVX2's frame.
#define YEPI4A(noadd, norelu) \
	TESTL  DX, DX;           \
	JZ     noadd;            \
	VADDPS Y15, Y1, Y1;      \
	VADDPS Y15, Y2, Y2;      \
	VADDPS Y15, Y3, Y3;      \
	VADDPS Y15, Y4, Y4;      \
noadd:                       \
	CMPB   relu+176(FP), $0; \
	JEQ    norelu;           \
	VMAXPS Y0, Y1, Y1;       \
	VMAXPS Y0, Y2, Y2;       \
	VMAXPS Y0, Y3, Y3;       \
	VMAXPS Y0, Y4, Y4;       \
norelu:

// UNPOOL8 is one step of unpoolAVX2: g, the winners and v in Y1-Y3, the
// offsets of the step's first eight columns in Y9; dy row 2r's sixteen
// columns come out in Y1/Y2, row 2r+1's in Y3/Y4. A kept lane is the
// gated value ANDed with an all-ones compare, a dropped one +0.
#define UNPOOL8(norelu) \
	VADDPS    Y1, Y0, Y1;         \
	CMPB      relu+160(FP), $0;   \
	JEQ       norelu;             \
	VCMPPS    $0x1E, Y0, Y3, Y4;  \
	VANDPS    Y4, Y1, Y1;         \
norelu:                           \
	VPERMPS   Y1, Y13, Y5;        \
	VPERMPS   Y1, Y14, Y6;        \
	VPERMD    Y2, Y13, Y7;        \
	VPERMD    Y2, Y14, Y8;        \
	VPADDD    Y11, Y9, Y4;        \
	VPCMPEQD  Y9, Y7, Y1;         \
	VANDPS    Y5, Y1, Y1;         \
	VPCMPEQD  Y4, Y8, Y2;         \
	VANDPS    Y6, Y2, Y2;         \
	VPADDD    Y10, Y9, Y3;        \
	VPCMPEQD  Y3, Y7, Y3;         \
	VANDPS    Y5, Y3, Y3;         \
	VPADDD    Y10, Y4, Y4;        \
	VPCMPEQD  Y4, Y8, Y4;         \
	VANDPS    Y6, Y4, Y4

// func reluAVX2(y, x []float32)
//
// y = MAX(x, +0): x when x > 0, else the zero register — NaN and −0 too.
TEXT ·reluAVX2(SB), NOSPLIT, $0-48
	MOVQ   y_base+0(FP), DI
	MOVQ   y_len+8(FP), CX
	MOVQ   x_base+24(FP), SI
	VXORPS Y0, Y0, Y0

	MOVQ CX, BX
	SHRQ $5, BX   // 32-float blocks
	JZ   blk8

loop32:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMAXPS  Y0, Y1, Y1
	VMAXPS  Y0, Y2, Y2
	VMAXPS  Y0, Y3, Y3
	VMAXPS  Y0, Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	DECQ    BX
	JNZ     loop32

blk8:
	ANDQ $31, CX
	MOVQ CX, BX
	SHRQ $3, BX   // 8-float blocks
	JZ   tail

loop8:
	VMOVUPS (SI), Y1
	VMAXPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    BX
	JNZ     loop8

tail:
	ANDQ $7, CX
	JZ   done

loop1:
	VMOVSS (SI), X1
	VMAXSS X0, X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET

// func reluAVX512(y, x []float32)
//
// 16-lane form; the tail is one masked load/store instead of a loop.
TEXT ·reluAVX512(SB), NOSPLIT, $0-48
	MOVQ   y_base+0(FP), DI
	MOVQ   y_len+8(FP), CX
	MOVQ   x_base+24(FP), SI
	VXORPS Z0, Z0, Z0

	MOVQ CX, BX
	SHRQ $6, BX   // 64-float blocks
	JZ   blk16

loop64:
	VMOVUPS (SI), Z1
	VMOVUPS 64(SI), Z2
	VMOVUPS 128(SI), Z3
	VMOVUPS 192(SI), Z4
	VMAXPS  Z0, Z1, Z1
	VMAXPS  Z0, Z2, Z2
	VMAXPS  Z0, Z3, Z3
	VMAXPS  Z0, Z4, Z4
	VMOVUPS Z1, (DI)
	VMOVUPS Z2, 64(DI)
	VMOVUPS Z3, 128(DI)
	VMOVUPS Z4, 192(DI)
	ADDQ    $256, SI
	ADDQ    $256, DI
	DECQ    BX
	JNZ     loop64

blk16:
	ANDQ $63, CX
	MOVQ CX, BX
	SHRQ $4, BX   // 16-float blocks
	JZ   tail

loop16:
	VMOVUPS (SI), Z1
	VMAXPS  Z0, Z1, Z1
	VMOVUPS Z1, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    BX
	JNZ     loop16

tail:
	ANDQ $15, CX
	JZ   done
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
	VMOVUPS.Z (SI), K1, Z1
	VMAXPS  Z0, Z1, Z1
	VMOVUPS Z1, K1, (DI)

done:
	VZEROUPPER
	RET

// func reluGradAVX2(dx, y, g []float32)
//
// mask = (+0 < y), ordered and quiet so NaN fails; dx = g AND mask, which
// leaves +0 where the mask is clear.
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-72
	MOVQ   dx_base+0(FP), DI
	MOVQ   dx_len+8(FP), CX
	MOVQ   y_base+24(FP), SI
	MOVQ   g_base+48(FP), DX
	VXORPS Y0, Y0, Y0

	MOVQ CX, BX
	SHRQ $4, BX   // 16-float blocks
	JZ   blk8

loop16:
	VCMPPS  $0x11, (SI), Y0, Y1
	VCMPPS  $0x11, 32(SI), Y0, Y2
	VANDPS  (DX), Y1, Y1
	VANDPS  32(DX), Y2, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI
	DECQ    BX
	JNZ     loop16

blk8:
	ANDQ $15, CX
	MOVQ CX, BX
	SHRQ $3, BX   // one optional 8-float block
	JZ   tail

	VCMPPS  $0x11, (SI), Y0, Y1
	VANDPS  (DX), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI

tail:
	ANDQ $7, CX
	JZ   done

loop1:
	VCMPSS $0x11, (SI), X0, X1
	VMOVSS (DX), X2
	VANDPS X2, X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DX
	ADDQ   $4, DI
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET

// func reluGradAVX512(dx, y, g []float32)
//
// The comparison writes an opmask and g loads through it with zeroing.
TEXT ·reluGradAVX512(SB), NOSPLIT, $0-72
	MOVQ   dx_base+0(FP), DI
	MOVQ   dx_len+8(FP), CX
	MOVQ   y_base+24(FP), SI
	MOVQ   g_base+48(FP), DX
	VXORPS Z0, Z0, Z0

	MOVQ CX, BX
	SHRQ $5, BX   // 32-float blocks
	JZ   blk16

loop32:
	VCMPPS  $0x11, (SI), Z0, K2
	VCMPPS  $0x11, 64(SI), Z0, K3
	VMOVUPS.Z (DX), K2, Z1
	VMOVUPS.Z 64(DX), K3, Z2
	VMOVUPS Z1, (DI)
	VMOVUPS Z2, 64(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	DECQ    BX
	JNZ     loop32

blk16:
	ANDQ $31, CX
	MOVQ CX, BX
	SHRQ $4, BX   // one optional 16-float block
	JZ   tail

	VCMPPS  $0x11, (SI), Z0, K2
	VMOVUPS.Z (DX), K2, Z1
	VMOVUPS Z1, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $64, DI

tail:
	ANDQ $15, CX
	JZ   done
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1
	VMOVUPS.Z (SI), K1, Z2
	VCMPPS  $0x11, Z2, Z0, K2
	VMOVUPS.Z (DX), K2, Z1
	VMOVUPS Z1, K1, (DI)

done:
	VZEROUPPER
	RET

// func maxPool2x2AVX2(dst, r0, r1 []float32)
//
// Eight outputs per step: VSHUFPS splits each 16-float input run into its
// even and odd elements, then best = MAX(v, best) folds the four taps in
// scan order starting from −Inf — so a tie or a NaN keeps the earlier
// best — and one quad permute undoes the split's lane order.
TEXT ·maxPool2x2AVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ r0_base+24(FP), SI
	MOVQ r1_base+48(FP), DX

	// −Inf = 0xFF800000: all ones shifted left past the mantissa.
	VPCMPEQD Y0, Y0, Y0
	VPSLLD   $23, Y0, Y0

	MOVQ CX, BX
	SHRQ $3, BX   // 8-output blocks
	JZ   tail

loop8:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS (DX), Y3
	VMOVUPS 32(DX), Y4
	VSHUFPS $0x88, Y2, Y1, Y5 // r0 evens
	VSHUFPS $0xDD, Y2, Y1, Y6 // r0 odds
	VSHUFPS $0x88, Y4, Y3, Y7 // r1 evens
	VSHUFPS $0xDD, Y4, Y3, Y8 // r1 odds
	VMAXPS  Y0, Y5, Y5
	VMAXPS  Y5, Y6, Y5
	VMAXPS  Y5, Y7, Y5
	VMAXPS  Y5, Y8, Y5
	VPERMPD $0xD8, Y5, Y5
	VMOVUPS Y5, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $32, DI
	DECQ    BX
	JNZ     loop8

tail:
	ANDQ $7, CX
	JZ   done

loop1:
	VMOVSS (SI), X1
	VMAXSS X0, X1, X1
	VMOVSS 4(SI), X2
	VMAXSS X1, X2, X1
	VMOVSS (DX), X2
	VMAXSS X1, X2, X1
	VMOVSS 4(DX), X2
	VMAXSS X1, X2, X1
	VMOVSS X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $4, DI
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET

// func maxPool2x2AVX512(dst, r0, r1 []float32)
//
// Sixteen outputs per step; the tail runs the same step under load and
// store masks (a masked-off input lane reads as zero and its output lane
// is never stored).
TEXT ·maxPool2x2AVX512(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ r0_base+24(FP), SI
	MOVQ r1_base+48(FP), DX

	VPTERNLOGD $0xFF, Z0, Z0, Z0
	VPSLLD     $23, Z0, Z0
	VMOVDQU64  poolQuads<>(SB), Z9

	MOVQ CX, BX
	SHRQ $4, BX   // 16-output blocks
	JZ   tail

loop16:
	VMOVUPS (SI), Z1
	VMOVUPS 64(SI), Z2
	VMOVUPS (DX), Z3
	VMOVUPS 64(DX), Z4
	VSHUFPS $0x88, Z2, Z1, Z5
	VSHUFPS $0xDD, Z2, Z1, Z6
	VSHUFPS $0x88, Z4, Z3, Z7
	VSHUFPS $0xDD, Z4, Z3, Z8
	VMAXPS  Z0, Z5, Z5
	VMAXPS  Z5, Z6, Z5
	VMAXPS  Z5, Z7, Z5
	VMAXPS  Z5, Z8, Z5
	VPERMPD Z5, Z9, Z5
	VMOVUPS Z5, (DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $64, DI
	DECQ    BX
	JNZ     loop16

tail:
	ANDQ $15, CX
	JZ   done
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1  // output lanes
	ADDQ CX, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K2  // first 16 input lanes
	SHRQ $16, AX
	KMOVW AX, K3  // input lanes 16..31

	VMOVUPS.Z (SI), K2, Z1
	VMOVUPS.Z 64(SI), K3, Z2
	VMOVUPS.Z (DX), K2, Z3
	VMOVUPS.Z 64(DX), K3, Z4
	VSHUFPS $0x88, Z2, Z1, Z5
	VSHUFPS $0xDD, Z2, Z1, Z6
	VSHUFPS $0x88, Z4, Z3, Z7
	VSHUFPS $0xDD, Z4, Z3, Z8
	VMAXPS  Z0, Z5, Z5
	VMAXPS  Z5, Z6, Z5
	VMAXPS  Z5, Z7, Z5
	VMAXPS  Z5, Z8, Z5
	VPERMPD Z5, Z9, Z5
	VMOVUPS Z5, K1, (DI)

done:
	VZEROUPPER
	RET

// func maxPool2x2ArgmaxAVX2(dst []float32, idx []int32, r0, r1 []float32, base, w int32)
//
// maxPool2x2AVX2 with a second select per tap: the mask v > best (ordered,
// quiet) moves the tap's value into best and its plane offset into the
// index vector. Offsets start from 0, the value the scalar body records for
// a window nothing wins.
TEXT ·maxPool2x2ArgmaxAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ idx_base+24(FP), R8
	MOVQ r0_base+48(FP), SI
	MOVQ r1_base+72(FP), DX
	MOVL base+96(FP), R9
	MOVL w+100(FP), R10

	VPCMPEQD Y0, Y0, Y0
	VPSLLD   $23, Y0, Y0            // −Inf
	VMOVD    R9, X9
	VPBROADCASTD X9, Y9
	VPADDD   poolIdx8<>(SB), Y9, Y9 // offsets of the r0 even taps
	VMOVD    R10, X10
	VPBROADCASTD X10, Y10           // w
	VPCMPEQD Y11, Y11, Y11
	VPSRLD   $31, Y11, Y11          // 1
	VPSLLD   $4, Y11, Y12           // 16: input floats per step

	MOVQ CX, BX
	SHRQ $3, BX   // 8-output blocks
	JZ   tail

loop8:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS (DX), Y3
	VMOVUPS 32(DX), Y4
	VSHUFPS $0x88, Y2, Y1, Y5
	VSHUFPS $0xDD, Y2, Y1, Y6
	VSHUFPS $0x88, Y4, Y3, Y7
	VSHUFPS $0xDD, Y4, Y3, Y8

	VCMPPS    $0x1E, Y0, Y5, Y13    // r0 even > −Inf
	VBLENDVPS Y13, Y5, Y0, Y14      // best
	VPAND     Y13, Y9, Y15          // index, 0 where nothing won yet

	VPADDD    Y11, Y9, Y1           // r0 odd offsets
	VCMPPS    $0x1E, Y14, Y6, Y13
	VBLENDVPS Y13, Y6, Y14, Y14
	VBLENDVPS Y13, Y1, Y15, Y15

	VPADDD    Y10, Y9, Y2           // r1 even offsets
	VCMPPS    $0x1E, Y14, Y7, Y13
	VBLENDVPS Y13, Y7, Y14, Y14
	VBLENDVPS Y13, Y2, Y15, Y15

	VPADDD    Y11, Y2, Y2           // r1 odd offsets
	VCMPPS    $0x1E, Y14, Y8, Y13
	VBLENDVPS Y13, Y8, Y14, Y14
	VBLENDVPS Y13, Y2, Y15, Y15

	VPERMPD $0xD8, Y14, Y14
	VPERMQ  $0xD8, Y15, Y15
	VMOVUPS Y14, (DI)
	VMOVDQU Y15, (R8)
	VPADDD  Y12, Y9, Y9
	ADDQ    $64, SI
	ADDQ    $64, DX
	ADDQ    $32, DI
	ADDQ    $32, R8
	DECQ    BX
	JNZ     loop8

tail:
	ANDQ $7, CX
	JZ   done
	// R9 = offset of the next r0 even tap: base + 2·(outputs done).
	MOVQ dst_len+8(FP), AX
	ANDQ $-8, AX
	LEAL (R9)(AX*2), R9

loop1:
	XORL     R11, R11
	VMOVSS   (SI), X2
	VUCOMISS X0, X2
	CMOVLHI  R9, R11
	VMAXSS   X0, X2, X1
	LEAL     1(R9), R12
	VMOVSS   4(SI), X2
	VUCOMISS X1, X2
	CMOVLHI  R12, R11
	VMAXSS   X1, X2, X1
	LEAL     (R9)(R10*1), R12
	VMOVSS   (DX), X2
	VUCOMISS X1, X2
	CMOVLHI  R12, R11
	VMAXSS   X1, X2, X1
	INCL     R12
	VMOVSS   4(DX), X2
	VUCOMISS X1, X2
	CMOVLHI  R12, R11
	VMAXSS   X1, X2, X1
	VMOVSS   X1, (DI)
	MOVL     R11, (R8)
	ADDL     $2, R9
	ADDQ     $8, SI
	ADDQ     $8, DX
	ADDQ     $4, DI
	ADDQ     $4, R8
	DECQ     CX
	JNZ      loop1

done:
	VZEROUPPER
	RET

// POOL_ARGMAX_STEP16 folds the four taps held in Z1..Z4 (r0 low/high, r1
// low/high) into best values Z14 and plane offsets Z15, in output order.
// Z0 is −Inf, Z9 the r0-even offsets, Z10 w, Z11 1, Z16 the quad order.
#define POOL_ARGMAX_STEP16 \
	VSHUFPS   $0x88, Z2, Z1, Z5   \
	VSHUFPS   $0xDD, Z2, Z1, Z6   \
	VSHUFPS   $0x88, Z4, Z3, Z7   \
	VSHUFPS   $0xDD, Z4, Z3, Z8   \
	VMOVAPS   Z0, Z14             \
	VPXORD    Z15, Z15, Z15       \
	VCMPPS    $0x1E, Z14, Z5, K4  \
	VMOVAPS   Z5, K4, Z14         \
	VMOVDQA32 Z9, K4, Z15         \
	VPADDD    Z11, Z9, Z1         \
	VCMPPS    $0x1E, Z14, Z6, K4  \
	VMOVAPS   Z6, K4, Z14         \
	VMOVDQA32 Z1, K4, Z15         \
	VPADDD    Z10, Z9, Z2         \
	VCMPPS    $0x1E, Z14, Z7, K4  \
	VMOVAPS   Z7, K4, Z14         \
	VMOVDQA32 Z2, K4, Z15         \
	VPADDD    Z11, Z2, Z2         \
	VCMPPS    $0x1E, Z14, Z8, K4  \
	VMOVAPS   Z8, K4, Z14         \
	VMOVDQA32 Z2, K4, Z15         \
	VPERMPD   Z14, Z16, Z14       \
	VPERMQ    Z15, Z16, Z15

// func maxPool2x2ArgmaxAVX512(dst []float32, idx []int32, r0, r1 []float32, base, w int32)
//
// The comparison writes an opmask and both selects are merge-masked moves.
TEXT ·maxPool2x2ArgmaxAVX512(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ idx_base+24(FP), R8
	MOVQ r0_base+48(FP), SI
	MOVQ r1_base+72(FP), DX
	MOVL base+96(FP), R9
	MOVL w+100(FP), R10

	VPTERNLOGD $0xFF, Z0, Z0, Z0
	VPSRLD     $31, Z0, Z11          // 1
	VPSLLD     $5, Z11, Z12          // 32: input floats per step
	VPSLLD     $23, Z0, Z0           // −Inf
	VPBROADCASTD R9, Z9
	VPADDD     poolIdx16<>(SB), Z9, Z9
	VPBROADCASTD R10, Z10            // w
	VMOVDQU64  poolQuads<>(SB), Z16

	MOVQ CX, BX
	SHRQ $4, BX   // 16-output blocks
	JZ   tail

loop16:
	VMOVUPS (SI), Z1
	VMOVUPS 64(SI), Z2
	VMOVUPS (DX), Z3
	VMOVUPS 64(DX), Z4
	POOL_ARGMAX_STEP16
	VMOVUPS Z14, (DI)
	VMOVDQU32 Z15, (R8)
	VPADDD  Z12, Z9, Z9
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $64, DI
	ADDQ    $64, R8
	DECQ    BX
	JNZ     loop16

tail:
	ANDQ $15, CX
	JZ   done
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1  // output lanes
	ADDQ CX, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K2
	SHRQ $16, AX
	KMOVW AX, K3

	VMOVUPS.Z (SI), K2, Z1
	VMOVUPS.Z 64(SI), K3, Z2
	VMOVUPS.Z (DX), K2, Z3
	VMOVUPS.Z 64(DX), K3, Z4
	POOL_ARGMAX_STEP16
	VMOVUPS Z14, K1, (DI)
	VMOVDQU32 Z15, K1, (R8)

done:
	VZEROUPPER
	RET

// The row kernels below serve im2col and col2im: a tap's clipped window of
// one plane, for a group of channel planes a call. On the strided side of
// the copy or add the floats are step apart. Step 2 — every strided layer
// of the climate network — has vector bodies built on the fact that a float
// at an even lane is the low half of a quadword: narrowing quadwords to
// doublewords (VPMOVQD) gathers the even lanes, and zero-extending
// doublewords to quadwords (VPMOVZXDQ) spreads a contiguous run back onto
// them. The add also has step 1, the stride-1 col2im's strip add. Any other
// step is the Go body's. No body touches a strided-side element off the
// step grid or past the last one: the callers clip the window to the plane,
// not to a vector width.
//
// All share one loop nest: planes, then rows, then blocks of a row.
// ROWS_SETUP leaves when there is nothing to do and scales the pitches to
// bytes. After a plane's last row the row pointers move on by the plane
// pitch less the rows just walked (R12, R13); R14 keeps the row count.
#define ROWS_SETUP \
	TESTQ R15, R15; \
	JZ   done;      \
	TESTQ R8, R8;   \
	JZ   done;      \
	TESTQ R11, R11; \
	JZ   done;      \
	MOVQ R8, R14;   \
	MOVQ R9, AX;    \
	IMULQ R8, AX;   \
	SUBQ AX, R12;   \
	MOVQ R10, AX;   \
	IMULQ R8, AX;   \
	SUBQ AX, R13;   \
	SHLQ $2, R9;    \
	SHLQ $2, R10;   \
	SHLQ $2, R12;   \
	SHLQ $2, R13

// ROWS_NEXT steps to the next row, or the first row of the next plane, at
// label row, and returns after the last.
#define ROWS_NEXT(row) \
	ADDQ R9, DI;  \
	ADDQ R10, SI; \
	DECQ R8;      \
	JNZ  row;     \
	ADDQ R12, DI; \
	ADDQ R13, SI; \
	MOVQ R14, R8; \
	DECQ R15;     \
	JNZ  row;     \
	VZEROUPPER;   \
	RET

// STEP2_MASKS512 splits a row of R11 contiguous-side floats into R11 full
// blocks of eight and CX left over: K2 the left-over floats, K1 the even
// lanes they pair with, K3 all eight even lanes.
#define STEP2_MASKS512 \
	MOVQ R11, CX;     \
	ANDQ $7, CX;      \
	MOVQ $1, AX;      \
	SHLQ CX, AX;      \
	DECQ AX;          \
	KMOVW AX, K2;     \
	ADDQ CX, CX;      \
	MOVQ $1, AX;      \
	SHLQ CX, AX;      \
	DECQ AX;          \
	ANDQ $0x5555, AX; \
	KMOVW AX, K1;     \
	MOVQ $0x5555, AX; \
	KMOVW AX, K3;     \
	SHRQ $3, R11

// func gatherRowsAVX2(dst, src []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n, step int)
//
// Eight outputs come from two overlapping loads, src[0:8] and src[7:15], so
// the last float read is the last one gathered; VSHUFPS picks the even
// floats of the first and the odd floats of the second within each 128-bit
// half and VPERMPD puts the halves in order.
TEXT ·gatherRowsAVX2(SB), NOSPLIT, $0-112
	CMPQ step+104(FP), $2
	JEQ  step2
	JMP  ·gatherRowsGeneric(SB)

step2:
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ planes+48(FP), R15
	MOVQ dstPlane+56(FP), R12
	MOVQ srcPlane+64(FP), R13
	MOVQ rows+72(FP), R8
	MOVQ dstPitch+80(FP), R9
	MOVQ srcPitch+88(FP), R10
	MOVQ n+96(FP), R11
	ROWS_SETUP

row:
	MOVQ DI, AX
	MOVQ SI, DX
	MOVQ R11, CX
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   blk4

loop8:
	VMOVUPS (DX), Y0
	VMOVUPS 28(DX), Y1
	VSHUFPS $0xD8, Y1, Y0, Y0 // s0 s2 s8 s10 | s4 s6 s12 s14
	VPERMPD $0xD8, Y0, Y0
	VMOVUPS Y0, (AX)
	ADDQ    $32, AX
	ADDQ    $64, DX
	DECQ    BX
	JNZ     loop8

blk4:
	TESTQ $4, CX
	JZ    tail
	VMOVUPS (DX), X0
	VMOVUPS 12(DX), X1
	VSHUFPS $0xD8, X1, X0, X0 // s0 s2 s4 s6
	VMOVUPS X0, (AX)
	ADDQ    $16, AX
	ADDQ    $32, DX

tail:
	ANDQ $3, CX
	JZ   next

loop1:
	MOVL (DX), BX
	MOVL BX, (AX)
	ADDQ $4, AX
	ADDQ $8, DX
	DECQ CX
	JNZ  loop1

next:
	ROWS_NEXT(row)

done:
	RET

// func gatherRowsAVX512(dst, src []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n, step int)
//
// Eight outputs per block: a masked load of the sixteen floats they span
// (even lanes only), narrowed to eight. Rows of up to eight outputs — the
// 8×8 and 4×4 planes — are one masked block each, the masks the same for
// every row.
TEXT ·gatherRowsAVX512(SB), NOSPLIT, $0-112
	CMPQ step+104(FP), $2
	JEQ  step2
	JMP  ·gatherRowsGeneric(SB)

step2:
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ planes+48(FP), R15
	MOVQ dstPlane+56(FP), R12
	MOVQ srcPlane+64(FP), R13
	MOVQ rows+72(FP), R8
	MOVQ dstPitch+80(FP), R9
	MOVQ srcPitch+88(FP), R10
	MOVQ n+96(FP), R11
	ROWS_SETUP
	STEP2_MASKS512

row:
	MOVQ DI, AX
	MOVQ SI, DX
	MOVQ R11, BX
	TESTQ BX, BX
	JZ   tail

loop8:
	VMOVUPS.Z (DX), K3, Z0
	VPMOVQD Z0, Y0
	VMOVUPS Y0, (AX)
	ADDQ    $32, AX
	ADDQ    $64, DX
	DECQ    BX
	JNZ     loop8

tail:
	TESTQ CX, CX
	JZ    next
	VMOVUPS.Z (DX), K1, Z0
	VPMOVQD Z0, Y0
	VMOVUPS Z0, K2, (AX) // VPMOVQD zeroed the upper half; K2 is below it

next:
	ROWS_NEXT(row)

done:
	RET

// func scatterRowsAVX2(dst, src []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n, step int)
//
// dst + src with dst as the first source, the order of the scalar `+=`. At
// step 2 four source floats spread onto the even lanes of a YMM; dst is
// loaded and stored under the even-lane mask, so the floats between the
// steps are not touched.
TEXT ·scatterRowsAVX2(SB), NOSPLIT, $0-112
	MOVQ step+104(FP), BX
	CMPQ BX, $1
	JEQ  vector
	CMPQ BX, $2
	JEQ  vector
	JMP  ·scatterRowsGeneric(SB)

vector:
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ planes+48(FP), R15
	MOVQ dstPlane+56(FP), R12
	MOVQ srcPlane+64(FP), R13
	MOVQ rows+72(FP), R8
	MOVQ dstPitch+80(FP), R9
	MOVQ srcPitch+88(FP), R10
	MOVQ n+96(FP), R11
	ROWS_SETUP
	CMPQ BX, $1
	JEQ  row1
	VPCMPEQD Y7, Y7, Y7
	VPSRLQ   $32, Y7, Y7 // all ones in every even lane

row2:
	MOVQ DI, AX
	MOVQ SI, DX
	MOVQ R11, CX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ   tail2

loop4:
	VPMOVZXDQ  (DX), Y1
	VMASKMOVPS (AX), Y7, Y0
	VADDPS     Y1, Y0, Y0
	VMASKMOVPS Y0, Y7, (AX)
	ADDQ       $32, AX
	ADDQ       $16, DX
	DECQ       BX
	JNZ        loop4

tail2:
	ANDQ $3, CX
	JZ   next2

loop1:
	VMOVSS (AX), X0
	VADDSS (DX), X0, X0
	VMOVSS X0, (AX)
	ADDQ   $8, AX
	ADDQ   $4, DX
	DECQ   CX
	JNZ    loop1

next2:
	ROWS_NEXT(row2)

row1:
	MOVQ DI, AX
	MOVQ SI, DX
	MOVQ R11, CX
	MOVQ CX, BX
	SHRQ $3, BX
	JZ   unit4

unit8:
	VMOVUPS (AX), Y0
	VADDPS  (DX), Y0, Y0
	VMOVUPS Y0, (AX)
	ADDQ    $32, AX
	ADDQ    $32, DX
	DECQ    BX
	JNZ     unit8

unit4:
	TESTQ $4, CX
	JZ    tail1
	VMOVUPS (AX), X0
	VADDPS  (DX), X0, X0
	VMOVUPS X0, (AX)
	ADDQ    $16, AX
	ADDQ    $16, DX

tail1:
	ANDQ $3, CX
	JZ   next1

unit1:
	VMOVSS (AX), X0
	VADDSS (DX), X0, X0
	VMOVSS X0, (AX)
	ADDQ   $4, AX
	ADDQ   $4, DX
	DECQ   CX
	JNZ    unit1

next1:
	ROWS_NEXT(row1)

done:
	RET

// func scatterRowsAVX512(dst, src []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n, step int)
//
// Step 2 is gatherRowsAVX512's mirror: eight source floats spread onto the
// even lanes of a ZMM and added into dst under the even-lane mask. Step 1
// is ZMM blocks and a masked tail. Both want dst's rows 16 floats apart or
// more; closer rows are the AVX2 body's. A masked ZMM store blocks a later
// load as if it were 64 bytes wide, and with rows closer than that the next
// row's load falls inside it, so every row waited for the one before it to
// retire: 2.05 ns an element on stride-1 4×4 planes against the AVX2
// body's 0.60.
TEXT ·scatterRowsAVX512(SB), NOSPLIT, $0-112
	MOVQ step+104(FP), BX
	CMPQ BX, $1
	JEQ  step12
	CMPQ BX, $2
	JEQ  step12
	JMP  ·scatterRowsGeneric(SB)

step12:
	CMPQ dstPitch+80(FP), $16
	JGE  vector
	JMP  ·scatterRowsAVX2(SB)

vector:
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ planes+48(FP), R15
	MOVQ dstPlane+56(FP), R12
	MOVQ srcPlane+64(FP), R13
	MOVQ rows+72(FP), R8
	MOVQ dstPitch+80(FP), R9
	MOVQ srcPitch+88(FP), R10
	MOVQ n+96(FP), R11
	ROWS_SETUP
	CMPQ BX, $1
	JEQ  unit
	STEP2_MASKS512

row2:
	MOVQ DI, AX
	MOVQ SI, DX
	MOVQ R11, BX
	TESTQ BX, BX
	JZ   tail2

loop8:
	VPMOVZXDQ (DX), Z1
	VMOVUPS.Z (AX), K3, Z0
	VADDPS    Z1, Z0, Z0
	VMOVUPS   Z0, K3, (AX)
	ADDQ      $64, AX
	ADDQ      $32, DX
	DECQ      BX
	JNZ       loop8

tail2:
	TESTQ CX, CX
	JZ    next2
	VMOVUPS.Z (DX), K2, Z1
	VPMOVZXDQ Y1, Z1
	VMOVUPS.Z (AX), K1, Z0
	VADDPS    Z1, Z0, Z0
	VMOVUPS   Z0, K1, (AX)

next2:
	ROWS_NEXT(row2)

unit:
	MOVQ R11, CX
	ANDQ $15, CX
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	KMOVW AX, K1  // tail lanes, empty when n is a multiple of 16
	SHRQ $4, R11  // 16-float blocks per row

row1:
	MOVQ DI, AX
	MOVQ SI, DX
	MOVQ R11, BX
	TESTQ BX, BX
	JZ   tail1

loop16:
	VMOVUPS (AX), Z0
	VADDPS  (DX), Z0, Z0
	VMOVUPS Z0, (AX)
	ADDQ    $64, AX
	ADDQ    $64, DX
	DECQ    BX
	JNZ     loop16

tail1:
	TESTQ CX, CX
	JZ    next1
	VMOVUPS.Z (AX), K1, Z0
	VMOVUPS.Z (DX), K1, Z1
	VADDPS  Z1, Z0, Z0
	VMOVUPS Z0, K1, (AX)

next1:
	ROWS_NEXT(row1)

done:
	RET

// func convStoreAVX512(dst, src, bias []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n int, relu, pool bool)
//
// Sixteen outputs per step, the row's tail under masks: unpooled, K1 is
// the last n%16 lanes; pooled, K2/K3 the last 2·(n%16) input lanes of each
// row and K1 their outputs (a masked-off input reads as zero and lands in
// an output lane that is not stored). Per row AX/CX point at the source
// and destination row, R14 is the byte offset into the destination row
// (the source's is twice it when pooled) and R15 (pooled: R9) counts the
// outputs left; the plane count is decremented in its argument slot.
TEXT ·convStoreAVX512(SB), NOSPLIT, $0-130
	CSTRIDES
	VPXORD     Z0, Z0, Z0
	VPTERNLOGD $0xFF, Z29, Z29, Z29
	VPSLLD     $23, Z29, Z29 // −Inf
	VMOVDQU64  poolQuads<>(SB), Z28
	ANDQ       $15, CX
	MOVL       $1, AX
	SHLQ       CX, AX
	DECQ       AX
	KMOVW      AX, K1
	CMPB       pool+129(FP), $0
	JNE        pooled

uplane:
	CBIAS(Z31, ubias)
	MOVQ SI, AX
	MOVQ DI, CX
	MOVQ rows+96(FP), BX

urow:
	XORQ R14, R14
	MOVQ n+120(FP), R15

ucol:
	CMPQ    R15, $16
	JLT     utail
	VMOVUPS (AX)(R14*1), Z1
	ZEPI(Z1, ua1, ur1)
	VMOVUPS Z1, (CX)(R14*1)
	ADDQ    $64, R14
	SUBQ    $16, R15
	JMP     ucol

utail:
	TESTQ     R15, R15
	JZ        unext
	VMOVUPS.Z (AX)(R14*1), K1, Z1
	ZEPI(Z1, ua2, ur2)
	VMOVUPS   Z1, K1, (CX)(R14*1)

unext:
	ADDQ R13, AX
	ADDQ R12, CX
	DECQ BX
	JNZ  urow
	ADDQ R11, SI
	ADDQ R10, DI
	DECQ planes+72(FP)
	JNZ  uplane
	VZEROUPPER
	RET

pooled:
	ADDQ  CX, CX
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K2
	SHRQ  $16, AX
	KMOVW AX, K3

pplane:
	CBIAS(Z31, pbias)
	MOVQ SI, AX
	MOVQ DI, CX
	MOVQ rows+96(FP), BX

prow:
	LEAQ (AX)(R13*1), R15
	XORQ R14, R14
	MOVQ n+120(FP), R9

pcol:
	CMPQ    R9, $16
	JLT     ptail
	VMOVUPS (AX)(R14*2), Z1
	VMOVUPS 64(AX)(R14*2), Z2
	VMOVUPS (R15)(R14*2), Z3
	VMOVUPS 64(R15)(R14*2), Z4
	ZEPI4(pa1, pr1)
	VSHUFPS $0x88, Z2, Z1, Z5
	VSHUFPS $0xDD, Z2, Z1, Z6
	VSHUFPS $0x88, Z4, Z3, Z7
	VSHUFPS $0xDD, Z4, Z3, Z8
	VMAXPS  Z29, Z5, Z5
	VMAXPS  Z5, Z6, Z5
	VMAXPS  Z5, Z7, Z5
	VMAXPS  Z5, Z8, Z5
	VPERMPD Z5, Z28, Z5
	VMOVUPS Z5, (CX)(R14*1)
	ADDQ    $64, R14
	SUBQ    $16, R9
	JMP     pcol

ptail:
	TESTQ     R9, R9
	JZ        pnext
	VMOVUPS.Z (AX)(R14*2), K2, Z1
	VMOVUPS.Z 64(AX)(R14*2), K3, Z2
	VMOVUPS.Z (R15)(R14*2), K2, Z3
	VMOVUPS.Z 64(R15)(R14*2), K3, Z4
	ZEPI4(pa2, pr2)
	VSHUFPS   $0x88, Z2, Z1, Z5
	VSHUFPS   $0xDD, Z2, Z1, Z6
	VSHUFPS   $0x88, Z4, Z3, Z7
	VSHUFPS   $0xDD, Z4, Z3, Z8
	VMAXPS    Z29, Z5, Z5
	VMAXPS    Z5, Z6, Z5
	VMAXPS    Z5, Z7, Z5
	VMAXPS    Z5, Z8, Z5
	VPERMPD   Z5, Z28, Z5
	VMOVUPS   Z5, K1, (CX)(R14*1)

pnext:
	LEAQ (AX)(R13*2), AX
	ADDQ R12, CX
	DECQ BX
	JNZ  prow
	ADDQ R11, SI
	ADDQ R10, DI
	DECQ planes+72(FP)
	JNZ  pplane
	VZEROUPPER
	RET

// func convStoreAVX2(dst, src, bias []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n int, relu, pool bool)
//
// convStoreAVX512 at eight outputs per step, the row's tail one output at
// a time; Y14 holds −Inf.
TEXT ·convStoreAVX2(SB), NOSPLIT, $0-130
	CSTRIDES
	VXORPS   Y0, Y0, Y0
	VPCMPEQD Y14, Y14, Y14
	VPSLLD   $23, Y14, Y14 // −Inf
	CMPB     pool+129(FP), $0
	JNE      pplane

uplane:
	CBIAS(Y15, ubias)
	MOVQ SI, AX
	MOVQ DI, CX
	MOVQ rows+96(FP), BX

urow:
	XORQ R14, R14
	MOVQ n+120(FP), R15

ucol:
	CMPQ    R15, $8
	JLT     utail
	VMOVUPS (AX)(R14*1), Y1
	YEPI(Y1, ua1, ur1)
	VMOVUPS Y1, (CX)(R14*1)
	ADDQ    $32, R14
	SUBQ    $8, R15
	JMP     ucol

utail:
	TESTQ  R15, R15
	JZ     unext
	VMOVSS (AX)(R14*1), X1
	XEPI(X1, ua2, ur2)
	VMOVSS X1, (CX)(R14*1)
	ADDQ   $4, R14
	DECQ   R15
	JMP    utail

unext:
	ADDQ R13, AX
	ADDQ R12, CX
	DECQ BX
	JNZ  urow
	ADDQ R11, SI
	ADDQ R10, DI
	DECQ planes+72(FP)
	JNZ  uplane
	VZEROUPPER
	RET

pplane:
	CBIAS(Y15, pbias)
	MOVQ SI, AX
	MOVQ DI, CX
	MOVQ rows+96(FP), BX

prow:
	LEAQ (AX)(R13*1), R15
	XORQ R14, R14
	MOVQ n+120(FP), R9

pcol:
	CMPQ    R9, $8
	JLT     ptail
	VMOVUPS (AX)(R14*2), Y1
	VMOVUPS 32(AX)(R14*2), Y2
	VMOVUPS (R15)(R14*2), Y3
	VMOVUPS 32(R15)(R14*2), Y4
	YEPI4(pa1, pr1)
	VSHUFPS $0x88, Y2, Y1, Y5
	VSHUFPS $0xDD, Y2, Y1, Y6
	VSHUFPS $0x88, Y4, Y3, Y7
	VSHUFPS $0xDD, Y4, Y3, Y8
	VMAXPS  Y14, Y5, Y5
	VMAXPS  Y5, Y6, Y5
	VMAXPS  Y5, Y7, Y5
	VMAXPS  Y5, Y8, Y5
	VPERMPD $0xD8, Y5, Y5
	VMOVUPS Y5, (CX)(R14*1)
	ADDQ    $32, R14
	SUBQ    $8, R9
	JMP     pcol

ptail:
	TESTQ  R9, R9
	JZ     pnext
	VMOVSS (AX)(R14*2), X1
	VMOVSS 4(AX)(R14*2), X2
	VMOVSS (R15)(R14*2), X3
	VMOVSS 4(R15)(R14*2), X4
	XEPI4(pa2, pr2)
	VMAXSS X14, X1, X1
	VMAXSS X1, X2, X1
	VMAXSS X1, X3, X1
	VMAXSS X1, X4, X1
	VMOVSS X1, (CX)(R14*1)
	ADDQ   $4, R14
	DECQ   R9
	JMP    ptail

pnext:
	LEAQ (AX)(R13*2), AX
	ADDQ R12, CX
	DECQ BX
	JNZ  prow
	ADDQ R11, SI
	ADDQ R10, DI
	DECQ planes+72(FP)
	JNZ  pplane
	VZEROUPPER
	RET

// The training store and its backward (conv_tile.go): convStoreArgmax is
// convStoreAVX512's pooled path that also keeps each window's winner, and
// unpool writes the gradient a window's four outputs get from it.

// unpoolDup{Lo,Hi} repeat each of lanes 0-7 (8-15) twice: a pooled
// output's value and winner spread over the two columns of its window.
// unpoolIota is the lanes' own index.
DATA unpoolDupLo<>+0(SB)/4, $0
DATA unpoolDupLo<>+4(SB)/4, $0
DATA unpoolDupLo<>+8(SB)/4, $1
DATA unpoolDupLo<>+12(SB)/4, $1
DATA unpoolDupLo<>+16(SB)/4, $2
DATA unpoolDupLo<>+20(SB)/4, $2
DATA unpoolDupLo<>+24(SB)/4, $3
DATA unpoolDupLo<>+28(SB)/4, $3
DATA unpoolDupLo<>+32(SB)/4, $4
DATA unpoolDupLo<>+36(SB)/4, $4
DATA unpoolDupLo<>+40(SB)/4, $5
DATA unpoolDupLo<>+44(SB)/4, $5
DATA unpoolDupLo<>+48(SB)/4, $6
DATA unpoolDupLo<>+52(SB)/4, $6
DATA unpoolDupLo<>+56(SB)/4, $7
DATA unpoolDupLo<>+60(SB)/4, $7
GLOBL unpoolDupLo<>(SB), RODATA|NOPTR, $64

DATA unpoolDupHi<>+0(SB)/4, $8
DATA unpoolDupHi<>+4(SB)/4, $8
DATA unpoolDupHi<>+8(SB)/4, $9
DATA unpoolDupHi<>+12(SB)/4, $9
DATA unpoolDupHi<>+16(SB)/4, $10
DATA unpoolDupHi<>+20(SB)/4, $10
DATA unpoolDupHi<>+24(SB)/4, $11
DATA unpoolDupHi<>+28(SB)/4, $11
DATA unpoolDupHi<>+32(SB)/4, $12
DATA unpoolDupHi<>+36(SB)/4, $12
DATA unpoolDupHi<>+40(SB)/4, $13
DATA unpoolDupHi<>+44(SB)/4, $13
DATA unpoolDupHi<>+48(SB)/4, $14
DATA unpoolDupHi<>+52(SB)/4, $14
DATA unpoolDupHi<>+56(SB)/4, $15
DATA unpoolDupHi<>+60(SB)/4, $15
GLOBL unpoolDupHi<>(SB), RODATA|NOPTR, $64

DATA unpoolIota<>+0(SB)/4, $0
DATA unpoolIota<>+4(SB)/4, $1
DATA unpoolIota<>+8(SB)/4, $2
DATA unpoolIota<>+12(SB)/4, $3
DATA unpoolIota<>+16(SB)/4, $4
DATA unpoolIota<>+20(SB)/4, $5
DATA unpoolIota<>+24(SB)/4, $6
DATA unpoolIota<>+28(SB)/4, $7
DATA unpoolIota<>+32(SB)/4, $8
DATA unpoolIota<>+36(SB)/4, $9
DATA unpoolIota<>+40(SB)/4, $10
DATA unpoolIota<>+44(SB)/4, $11
DATA unpoolIota<>+48(SB)/4, $12
DATA unpoolIota<>+52(SB)/4, $13
DATA unpoolIota<>+56(SB)/4, $14
DATA unpoolIota<>+60(SB)/4, $15
GLOBL unpoolIota<>(SB), RODATA|NOPTR, $64


// ARGMAX16 is POOL_ARGMAX_STEP16 with −Inf in Z29, leaving Z0 (+0) to the
// ReLU: it folds the four taps in Z1..Z4 into best values Z14 and plane
// offsets Z15, in output order. Z9 holds the r0-even offsets, Z10 w, Z11 1,
// Z16 the quad order.
#define ARGMAX16 \
	VSHUFPS   $0x88, Z2, Z1, Z5;  \
	VSHUFPS   $0xDD, Z2, Z1, Z6;  \
	VSHUFPS   $0x88, Z4, Z3, Z7;  \
	VSHUFPS   $0xDD, Z4, Z3, Z8;  \
	VMOVAPS   Z29, Z14;           \
	VPXORD    Z15, Z15, Z15;      \
	VCMPPS    $0x1E, Z14, Z5, K4; \
	VMOVAPS   Z5, K4, Z14;        \
	VMOVDQA32 Z9, K4, Z15;        \
	VPADDD    Z11, Z9, Z1;        \
	VCMPPS    $0x1E, Z14, Z6, K4; \
	VMOVAPS   Z6, K4, Z14;        \
	VMOVDQA32 Z1, K4, Z15;        \
	VPADDD    Z10, Z9, Z2;        \
	VCMPPS    $0x1E, Z14, Z7, K4; \
	VMOVAPS   Z7, K4, Z14;        \
	VMOVDQA32 Z2, K4, Z15;        \
	VPADDD    Z11, Z2, Z2;        \
	VCMPPS    $0x1E, Z14, Z8, K4; \
	VMOVAPS   Z8, K4, Z14;        \
	VMOVDQA32 Z2, K4, Z15;        \
	VPERMPD   Z14, Z16, Z14;      \
	VPERMQ    Z15, Z16, Z15

// func convStoreArgmaxAVX512(dst []float32, idx []int32, src, bias []float32, planes, dstPlane, idxPlane, srcPlane, rows, dstPitch, srcPitch, n, base, w int, relu bool)
//
// convStoreAVX512's pooled loop with ARGMAX16 for its max folds: the values
// are the same maxima, and the offsets come out beside them. The plane
// strides are scaled to bytes in their argument slots. Per plane DI/SI/R10
// point at dst/src/idx, per row AX/R15 at the two source rows, CX/R11 at
// the dst and idx rows; R14 is the byte offset into those rows, R9 counts
// the outputs left. Z17 holds the row's first offsets, Z18 2·w, Z19 the
// first row's.
TEXT ·convStoreArgmaxAVX512(SB), NOSPLIT, $0-177
	MOVQ dst_base+0(FP), DI
	MOVQ idx_base+24(FP), R10
	MOVQ src_base+48(FP), SI
	MOVQ bias_base+72(FP), R8
	SHLQ $2, dstPlane+104(FP)
	SHLQ $2, idxPlane+112(FP)
	SHLQ $2, srcPlane+120(FP)
	MOVQ dstPitch+136(FP), R12
	MOVQ srcPitch+144(FP), R13
	SHLQ $2, R12
	SHLQ $2, R13

	VPXORD       Z0, Z0, Z0
	VPTERNLOGD   $0xFF, Z29, Z29, Z29
	VPSRLD       $31, Z29, Z11 // 1
	VPSLLD       $5, Z11, Z12  // 32: input floats per step
	VPSLLD       $23, Z29, Z29 // −Inf
	VMOVDQU64    poolQuads<>(SB), Z16
	MOVQ         w+168(FP), AX
	VPBROADCASTD AX, Z10
	VPADDD       Z10, Z10, Z18
	MOVQ         base+160(FP), AX
	VPBROADCASTD AX, Z19
	VPADDD       poolIdx16<>(SB), Z19, Z19

	MOVQ  n+152(FP), CX
	ANDQ  $15, CX
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	ADDQ  CX, CX
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K2
	SHRQ  $16, AX
	KMOVW AX, K3

aplane:
	CBIAS(Z31, abias)
	MOVQ      SI, AX
	MOVQ      DI, CX
	MOVQ      R10, R11
	VMOVDQA64 Z19, Z17
	MOVQ      rows+128(FP), BX

arow:
	LEAQ      (AX)(R13*1), R15
	XORQ      R14, R14
	MOVQ      n+152(FP), R9
	VMOVDQA64 Z17, Z9

acol:
	CMPQ      R9, $16
	JLT       atail
	VMOVUPS   (AX)(R14*2), Z1
	VMOVUPS   64(AX)(R14*2), Z2
	VMOVUPS   (R15)(R14*2), Z3
	VMOVUPS   64(R15)(R14*2), Z4
	ZEPI4A(aa1, ar1)
	ARGMAX16
	VMOVUPS   Z14, (CX)(R14*1)
	VMOVDQU32 Z15, (R11)(R14*1)
	VPADDD    Z12, Z9, Z9
	ADDQ      $64, R14
	SUBQ      $16, R9
	JMP       acol

atail:
	TESTQ     R9, R9
	JZ        anext
	VMOVUPS.Z (AX)(R14*2), K2, Z1
	VMOVUPS.Z 64(AX)(R14*2), K3, Z2
	VMOVUPS.Z (R15)(R14*2), K2, Z3
	VMOVUPS.Z 64(R15)(R14*2), K3, Z4
	ZEPI4A(aa2, ar2)
	ARGMAX16
	VMOVUPS   Z14, K1, (CX)(R14*1)
	VMOVDQU32 Z15, K1, (R11)(R14*1)

anext:
	LEAQ   (AX)(R13*2), AX
	ADDQ   R12, CX
	MOVQ   n+152(FP), R9
	LEAQ   (R11)(R9*4), R11
	VPADDD Z18, Z17, Z17
	DECQ   BX
	JNZ    arow
	ADDQ   srcPlane+120(FP), SI
	ADDQ   dstPlane+104(FP), DI
	ADDQ   idxPlane+112(FP), R10
	DECQ   planes+96(FP)
	JNZ    aplane
	VZEROUPPER
	RET

// func unpoolAVX512(dy, g []float32, idx []int32, v []float32, planes, dyPlane, gPlane, vPlane, rows, vPitch, n, w int, relu bool)
//
// Sixteen pooled outputs per step, spread over the 32 columns of their
// windows: g's gated value and the winner offset are each duplicated into
// two vectors (lane m of a pair takes output m/2), and lane m of dy row 2r
// (2r+1) gets the value where the winner is its own offset (plus w), +0
// elsewhere. The gate is +0 + g, zeroed where v > +0 fails under relu. The
// tail loads its outputs under K1 and stores their columns under K2/K3.
// Per plane DI/SI/R8/DX point at dy/g/idx/v, per row CX at dy row 2r,
// R12/R13/R15 at the g, idx and v rows; R10 is w in bytes, R14 the byte
// offset into the pooled rows (twice it into dy's), R9 the outputs left.
// Z17 holds the offsets of the row's first sixteen columns.
TEXT ·unpoolAVX512(SB), NOSPLIT, $0-161
	MOVQ dy_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	MOVQ v_base+72(FP), DX
	SHLQ $2, dyPlane+104(FP)
	SHLQ $2, gPlane+112(FP)
	SHLQ $2, vPlane+120(FP)
	SHLQ $2, vPitch+136(FP)
	MOVQ w+152(FP), R10
	SHLQ $2, R10

	VPXORD       Z0, Z0, Z0
	VMOVDQU32    unpoolDupLo<>(SB), Z20
	VMOVDQU32    unpoolDupHi<>(SB), Z21
	VPTERNLOGD   $0xFF, Z11, Z11, Z11
	VPSRLD       $31, Z11, Z11 // 1
	VPSLLD       $4, Z11, Z12  // 16
	VPSLLD       $5, Z11, Z13  // 32
	MOVQ         w+152(FP), AX
	VPBROADCASTD AX, Z10
	VPADDD       Z10, Z10, Z18 // 2w

	MOVQ  n+144(FP), CX
	ANDQ  $15, CX
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1
	ADDQ  CX, CX
	MOVL  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K2
	SHRQ  $16, AX
	KMOVW AX, K3

uplane:
	MOVQ      DI, CX
	MOVQ      SI, R12
	MOVQ      R8, R13
	MOVQ      DX, R15
	VMOVDQU32 unpoolIota<>(SB), Z17
	MOVQ      rows+128(FP), BX

urow:
	XORQ      R14, R14
	MOVQ      n+144(FP), R9
	VMOVDQA64 Z17, Z9

ucol:
	CMPQ      R9, $16
	JLT       utail
	VMOVUPS   (R12)(R14*1), Z1
	VMOVDQU32 (R13)(R14*1), Z2
	VMOVUPS   (R15)(R14*1), Z3
	UNPOOL16(ur1)
	VMOVUPS   Z4, (CX)(R14*2)
	VMOVUPS   Z5, 64(CX)(R14*2)
	ADDQ      R10, CX
	VMOVUPS   Z6, (CX)(R14*2)
	VMOVUPS   Z7, 64(CX)(R14*2)
	SUBQ      R10, CX
	VPADDD    Z13, Z9, Z9
	ADDQ      $64, R14
	SUBQ      $16, R9
	JMP       ucol

utail:
	TESTQ     R9, R9
	JZ        unext
	VMOVUPS.Z   (R12)(R14*1), K1, Z1
	VMOVDQU32.Z (R13)(R14*1), K1, Z2
	VMOVUPS.Z   (R15)(R14*1), K1, Z3
	UNPOOL16(ur2)
	VMOVUPS     Z4, K2, (CX)(R14*2)
	VMOVUPS     Z5, K3, 64(CX)(R14*2)
	ADDQ        R10, CX
	VMOVUPS     Z6, K2, (CX)(R14*2)
	VMOVUPS     Z7, K3, 64(CX)(R14*2)
	SUBQ        R10, CX

unext:
	LEAQ   (CX)(R10*2), CX
	MOVQ   n+144(FP), R9
	LEAQ   (R12)(R9*4), R12
	LEAQ   (R13)(R9*4), R13
	ADDQ   vPitch+136(FP), R15
	VPADDD Z18, Z17, Z17
	DECQ   BX
	JNZ    urow
	ADDQ   dyPlane+104(FP), DI
	ADDQ   gPlane+112(FP), SI
	ADDQ   gPlane+112(FP), R8
	ADDQ   vPlane+120(FP), DX
	DECQ   planes+96(FP)
	JNZ    uplane
	VZEROUPPER
	RET

// laneTail holds eight live lanes then eight dead ones: the eight dwords
// at byte offset 32−4c are the mask of lanes below c.
DATA laneTail<>+0(SB)/8, $0xffffffffffffffff
DATA laneTail<>+8(SB)/8, $0xffffffffffffffff
DATA laneTail<>+16(SB)/8, $0xffffffffffffffff
DATA laneTail<>+24(SB)/8, $0xffffffffffffffff
DATA laneTail<>+32(SB)/8, $0
DATA laneTail<>+40(SB)/8, $0
DATA laneTail<>+48(SB)/8, $0
DATA laneTail<>+56(SB)/8, $0
GLOBL laneTail<>(SB), RODATA|NOPTR, $64

// unpoolDup8{Lo,Hi} repeat each of lanes 0-3 (4-7) twice.
DATA unpoolDup8Lo<>+0(SB)/4, $0
DATA unpoolDup8Lo<>+4(SB)/4, $0
DATA unpoolDup8Lo<>+8(SB)/4, $1
DATA unpoolDup8Lo<>+12(SB)/4, $1
DATA unpoolDup8Lo<>+16(SB)/4, $2
DATA unpoolDup8Lo<>+20(SB)/4, $2
DATA unpoolDup8Lo<>+24(SB)/4, $3
DATA unpoolDup8Lo<>+28(SB)/4, $3
GLOBL unpoolDup8Lo<>(SB), RODATA|NOPTR, $32

DATA unpoolDup8Hi<>+0(SB)/4, $4
DATA unpoolDup8Hi<>+4(SB)/4, $4
DATA unpoolDup8Hi<>+8(SB)/4, $5
DATA unpoolDup8Hi<>+12(SB)/4, $5
DATA unpoolDup8Hi<>+16(SB)/4, $6
DATA unpoolDup8Hi<>+20(SB)/4, $6
DATA unpoolDup8Hi<>+24(SB)/4, $7
DATA unpoolDup8Hi<>+28(SB)/4, $7
GLOBL unpoolDup8Hi<>(SB), RODATA|NOPTR, $32

// TAILMASKS stores, for c = cnt%8 (cnt in CX, which it clobbers with AX
// and BX), the mask of c lanes at one and those of the first and second
// eight of 2c lanes at lo and hi, from laneTail.
#define TAILMASKS(one, lo, hi) \
	ANDQ    $7, CX;              \
	LEAQ    laneTail<>(SB), AX;  \
	MOVQ    CX, BX;              \
	NEGQ    BX;                  \
	VMOVDQU 32(AX)(BX*4), Y1;    \
	VMOVDQU Y1, one;             \
	ADDQ    CX, CX;              \
	MOVQ    $8, BX;              \
	CMPQ    CX, BX;              \
	CMOVQLT CX, BX;              \
	SUBQ    BX, CX;              \
	NEGQ    BX;                  \
	NEGQ    CX;                  \
	VMOVDQU 32(AX)(BX*4), Y1;    \
	VMOVDQU Y1, lo;              \
	VMOVDQU 32(AX)(CX*4), Y1;    \
	VMOVDQU Y1, hi

// YARGMAX8 is maxPool2x2ArgmaxAVX2's step on the four taps in Y1..Y4:
// best values come out in Y3, plane offsets in Y4, in output order. Y14
// is −Inf, Y9 the r0-even offsets, Y10 w, Y11 1.
#define YARGMAX8 \
	VSHUFPS   $0x88, Y2, Y1, Y5;  \
	VSHUFPS   $0xDD, Y2, Y1, Y6;  \
	VSHUFPS   $0x88, Y4, Y3, Y7;  \
	VSHUFPS   $0xDD, Y4, Y3, Y8;  \
	VCMPPS    $0x1E, Y14, Y5, Y2; \
	VBLENDVPS Y2, Y5, Y14, Y3;    \
	VPAND     Y2, Y9, Y4;         \
	VPADDD    Y11, Y9, Y1;        \
	VCMPPS    $0x1E, Y3, Y6, Y2;  \
	VBLENDVPS Y2, Y6, Y3, Y3;     \
	VBLENDVPS Y2, Y1, Y4, Y4;     \
	VPADDD    Y10, Y9, Y1;        \
	VCMPPS    $0x1E, Y3, Y7, Y2;  \
	VBLENDVPS Y2, Y7, Y3, Y3;     \
	VBLENDVPS Y2, Y1, Y4, Y4;     \
	VPADDD    Y11, Y1, Y1;        \
	VCMPPS    $0x1E, Y3, Y8, Y2;  \
	VBLENDVPS Y2, Y8, Y3, Y3;     \
	VBLENDVPS Y2, Y1, Y4, Y4;     \
	VPERMPD   $0xD8, Y3, Y3;      \
	VPERMQ    $0xD8, Y4, Y4

// func convStoreArgmaxAVX2(dst []float32, idx []int32, src, bias []float32, planes, dstPlane, idxPlane, srcPlane, rows, dstPitch, srcPitch, n, base, w int, relu bool)
//
// convStoreArgmaxAVX512 at eight outputs per step. A row's last n%8
// outputs run the same step under masks kept in the frame (outputs at
// out, their source lanes at lo/hi); base holds the first row's offsets.
TEXT ·convStoreArgmaxAVX2(SB), NOSPLIT, $128-177
	MOVQ n+152(FP), CX
	TAILMASKS(out-32(SP), lo-64(SP), hi-96(SP))
	MOVQ dst_base+0(FP), DI
	MOVQ idx_base+24(FP), R10
	MOVQ src_base+48(FP), SI
	MOVQ bias_base+72(FP), R8
	SHLQ $2, dstPlane+104(FP)
	SHLQ $2, idxPlane+112(FP)
	SHLQ $2, srcPlane+120(FP)
	MOVQ dstPitch+136(FP), R12
	MOVQ srcPitch+144(FP), R13
	SHLQ $2, R12
	SHLQ $2, R13

	VXORPS       Y0, Y0, Y0
	VPCMPEQD     Y14, Y14, Y14
	VPSLLD       $23, Y14, Y14 // −Inf
	VPCMPEQD     Y11, Y11, Y11
	VPSRLD       $31, Y11, Y11 // 1
	VPSLLD       $4, Y11, Y12  // 16: input floats per step
	MOVQ         w+168(FP), AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10
	MOVQ         base+160(FP), AX
	VMOVD        AX, X13
	VPBROADCASTD X13, Y13
	VPADDD       poolIdx8<>(SB), Y13, Y13
	VMOVDQU      Y13, base-128(SP)

xplane:
	CBIAS(Y15, xbias)
	MOVQ    SI, AX
	MOVQ    DI, CX
	MOVQ    R10, R11
	VMOVDQU base-128(SP), Y13
	MOVQ    rows+128(FP), BX

xrow:
	LEAQ    (AX)(R13*1), R15
	XORQ    R14, R14
	MOVQ    n+152(FP), R9
	VMOVDQA Y13, Y9

xcol:
	CMPQ    R9, $8
	JLT     xtail
	VMOVUPS (AX)(R14*2), Y1
	VMOVUPS 32(AX)(R14*2), Y2
	VMOVUPS (R15)(R14*2), Y3
	VMOVUPS 32(R15)(R14*2), Y4
	YEPI4A(xa1, xr1)
	YARGMAX8
	VMOVUPS Y3, (CX)(R14*1)
	VMOVDQU Y4, (R11)(R14*1)
	VPADDD  Y12, Y9, Y9
	ADDQ    $32, R14
	SUBQ    $8, R9
	JMP     xcol

xtail:
	TESTQ      R9, R9
	JZ         xnext
	VMOVDQU    lo-64(SP), Y5
	VMOVDQU    hi-96(SP), Y6
	VMASKMOVPS (AX)(R14*2), Y5, Y1
	VMASKMOVPS 32(AX)(R14*2), Y6, Y2
	VMASKMOVPS (R15)(R14*2), Y5, Y3
	VMASKMOVPS 32(R15)(R14*2), Y6, Y4
	YEPI4A(xa2, xr2)
	YARGMAX8
	VMOVDQU    out-32(SP), Y2
	VMASKMOVPS Y3, Y2, (CX)(R14*1)
	VPMASKMOVD Y4, Y2, (R11)(R14*1)

xnext:
	LEAQ   (AX)(R13*2), AX
	ADDQ   R12, CX
	MOVQ   n+152(FP), R9
	LEAQ   (R11)(R9*4), R11
	VPADDD Y10, Y13, Y13
	VPADDD Y10, Y13, Y13
	DECQ   BX
	JNZ    xrow
	ADDQ   srcPlane+120(FP), SI
	ADDQ   dstPlane+104(FP), DI
	ADDQ   idxPlane+112(FP), R10
	DECQ   planes+96(FP)
	JNZ    xplane
	VZEROUPPER
	RET

// func unpoolAVX2(dy, g []float32, idx []int32, v []float32, planes, dyPlane, gPlane, vPlane, rows, vPitch, n, w int, relu bool)
//
// unpoolAVX512 at eight pooled outputs per step (UNPOOL8). A row's last
// n%8 outputs load under the mask at in and store their columns under
// those at lo/hi, kept in the frame. Registers as in unpoolAVX512; Y15
// holds the offsets of the row's first eight columns, Y13/Y14 the
// duplication tables, Y11 8, Y12 16.
TEXT ·unpoolAVX2(SB), NOSPLIT, $96-161
	MOVQ n+144(FP), CX
	TAILMASKS(in-32(SP), lo-64(SP), hi-96(SP))
	MOVQ dy_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	MOVQ v_base+72(FP), DX
	SHLQ $2, dyPlane+104(FP)
	SHLQ $2, gPlane+112(FP)
	SHLQ $2, vPlane+120(FP)
	SHLQ $2, vPitch+136(FP)
	MOVQ w+152(FP), R10
	SHLQ $2, R10

	VXORPS       Y0, Y0, Y0
	VMOVDQU      unpoolDup8Lo<>(SB), Y13
	VMOVDQU      unpoolDup8Hi<>(SB), Y14
	VPCMPEQD     Y11, Y11, Y11
	VPSRLD       $31, Y11, Y11
	VPSLLD       $3, Y11, Y11 // 8
	VPADDD       Y11, Y11, Y12 // 16
	MOVQ         w+152(FP), AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10

vplane:
	MOVQ    DI, CX
	MOVQ    SI, R12
	MOVQ    R8, R13
	MOVQ    DX, R15
	VMOVDQU unpoolIota<>(SB), Y15
	MOVQ    rows+128(FP), BX

vrow:
	XORQ    R14, R14
	MOVQ    n+144(FP), R9
	VMOVDQA Y15, Y9

vcol:
	CMPQ    R9, $8
	JLT     vtail
	VMOVUPS (R12)(R14*1), Y1
	VMOVDQU (R13)(R14*1), Y2
	VMOVUPS (R15)(R14*1), Y3
	UNPOOL8(vr1)
	VMOVUPS Y1, (CX)(R14*2)
	VMOVUPS Y2, 32(CX)(R14*2)
	ADDQ    R10, CX
	VMOVUPS Y3, (CX)(R14*2)
	VMOVUPS Y4, 32(CX)(R14*2)
	SUBQ    R10, CX
	VPADDD  Y12, Y9, Y9
	ADDQ    $32, R14
	SUBQ    $8, R9
	JMP     vcol

vtail:
	TESTQ      R9, R9
	JZ         vnext
	VMOVDQU    in-32(SP), Y4
	VMASKMOVPS (R12)(R14*1), Y4, Y1
	VPMASKMOVD (R13)(R14*1), Y4, Y2
	VMASKMOVPS (R15)(R14*1), Y4, Y3
	UNPOOL8(vr2)
	VMOVDQU    lo-64(SP), Y5
	VMOVDQU    hi-96(SP), Y6
	VMASKMOVPS Y1, Y5, (CX)(R14*2)
	VMASKMOVPS Y2, Y6, 32(CX)(R14*2)
	ADDQ       R10, CX
	VMASKMOVPS Y3, Y5, (CX)(R14*2)
	VMASKMOVPS Y4, Y6, 32(CX)(R14*2)
	SUBQ       R10, CX

vnext:
	LEAQ   (CX)(R10*2), CX
	MOVQ   n+144(FP), R9
	LEAQ   (R12)(R9*4), R12
	LEAQ   (R13)(R9*4), R13
	ADDQ   vPitch+136(FP), R15
	VPADDD Y10, Y15, Y15
	VPADDD Y10, Y15, Y15
	DECQ   BX
	JNZ    vrow
	ADDQ   dyPlane+104(FP), DI
	ADDQ   gPlane+112(FP), SI
	ADDQ   gPlane+112(FP), R8
	ADDQ   vPlane+120(FP), DX
	DECQ   planes+96(FP)
	JNZ    vplane
	VZEROUPPER
	RET

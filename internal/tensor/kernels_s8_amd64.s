//go:build amd64

#include "textflag.h"

// Vector bodies of the int8 datapath's kernels (gemm_s8.go). The integer
// kernels are exact whatever the lane structure. The float steps of the
// epilogue and the quantizer are the scalar body's operations one for one:
// int32 subtract, convert, multiply, add in fp32; widen, multiply, add,
// clamp, truncate in fp64 — no FMA anywhere.

DATA s8Iota<>+0(SB)/4, $0
DATA s8Iota<>+4(SB)/4, $1
DATA s8Iota<>+8(SB)/4, $2
DATA s8Iota<>+12(SB)/4, $3
DATA s8Iota<>+16(SB)/4, $4
DATA s8Iota<>+20(SB)/4, $5
DATA s8Iota<>+24(SB)/4, $6
DATA s8Iota<>+28(SB)/4, $7
DATA s8Iota<>+32(SB)/4, $8
DATA s8Iota<>+36(SB)/4, $9
DATA s8Iota<>+40(SB)/4, $10
DATA s8Iota<>+44(SB)/4, $11
DATA s8Iota<>+48(SB)/4, $12
DATA s8Iota<>+52(SB)/4, $13
DATA s8Iota<>+56(SB)/4, $14
DATA s8Iota<>+60(SB)/4, $15
GLOBL s8Iota<>(SB), RODATA|NOPTR, $64

// 128.5 and 255 as float64.
DATA s8Half<>+0(SB)/8, $0x4060100000000000
GLOBL s8Half<>(SB), RODATA|NOPTR, $8
DATA s8Top<>+0(SB)/8, $0x406fe00000000000
GLOBL s8Top<>(SB), RODATA|NOPTR, $8

// func convS8VNNI(acc []int32, x []uint8, w []int8, rows, k4, rowStride, pixStride int)
//
// Eight pixels × sixteen channels live in Z0–Z7. Per group of four input
// bytes: one 64-byte weight load (16 channels × 4 taps), then for each
// pixel a 4-byte broadcast of its activations and one VPDPBUSD, which
// multiplies the four u8·s8 pairs of every lane and adds them to the
// lane's int32. The weight register is shared by the eight pixels and
// every lane is a finished output channel: nothing is reduced across
// lanes. Pixels 0–3 are addressed from AX, 4–7 from R11 = AX + 4·pixStride.
// A run's remainder goes four pixels, then one pixel, at a time.
#define S8_GROUP4(base, a, b, c, d) \
	VPBROADCASTD (base), Z9;         \
	VPBROADCASTD (base)(R12*1), Z10; \
	VPBROADCASTD (base)(R12*2), Z11; \
	VPBROADCASTD (base)(R13*1), Z12; \
	VPDPBUSD     Z8, Z9, a;          \
	VPDPBUSD     Z8, Z10, b;         \
	VPDPBUSD     Z8, Z11, c;         \
	VPDPBUSD     Z8, Z12, d

TEXT ·convS8VNNI(SB), NOSPLIT, $0-104
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), R8
	SHRQ $4, R8                // pixels left
	MOVQ x_base+24(FP), SI     // pixel 0 of the current block, kernel row 0
	MOVQ k4+80(FP), R10
	MOVQ pixStride+96(FP), R12
	LEAQ (R12)(R12*2), R13     // 3·pixStride

blk8:
	CMPQ   R8, $8
	JLT    blk4
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	MOVQ   w_base+48(FP), BX
	MOVQ   SI, DX
	MOVQ   rows+72(FP), R9

row8:
	MOVQ DX, AX
	LEAQ (DX)(R12*4), R11
	MOVQ R10, CX

grp8:
	VMOVDQU32 (BX), Z8
	S8_GROUP4(AX, Z0, Z1, Z2, Z3)
	VPBROADCASTD (R11), Z13
	VPBROADCASTD (R11)(R12*1), Z14
	VPBROADCASTD (R11)(R12*2), Z15
	VPBROADCASTD (R11)(R13*1), Z16
	VPDPBUSD     Z8, Z13, Z4
	VPDPBUSD     Z8, Z14, Z5
	VPDPBUSD     Z8, Z15, Z6
	VPDPBUSD     Z8, Z16, Z7
	ADDQ $4, AX
	ADDQ $4, R11
	ADDQ $64, BX
	DECQ CX
	JNZ  grp8
	ADDQ rowStride+88(FP), DX
	DECQ R9
	JNZ  row8

	VMOVDQU32 Z0, (DI)
	VMOVDQU32 Z1, 64(DI)
	VMOVDQU32 Z2, 128(DI)
	VMOVDQU32 Z3, 192(DI)
	VMOVDQU32 Z4, 256(DI)
	VMOVDQU32 Z5, 320(DI)
	VMOVDQU32 Z6, 384(DI)
	VMOVDQU32 Z7, 448(DI)
	ADDQ      $512, DI
	LEAQ      (SI)(R12*8), SI
	SUBQ      $8, R8
	JMP       blk8

blk4:
	CMPQ   R8, $4
	JLT    blk1
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	MOVQ   w_base+48(FP), BX
	MOVQ   SI, DX
	MOVQ   rows+72(FP), R9

row4:
	MOVQ DX, AX
	MOVQ R10, CX

grp4:
	VMOVDQU32 (BX), Z8
	S8_GROUP4(AX, Z0, Z1, Z2, Z3)
	ADDQ $4, AX
	ADDQ $64, BX
	DECQ CX
	JNZ  grp4
	ADDQ rowStride+88(FP), DX
	DECQ R9
	JNZ  row4

	VMOVDQU32 Z0, (DI)
	VMOVDQU32 Z1, 64(DI)
	VMOVDQU32 Z2, 128(DI)
	VMOVDQU32 Z3, 192(DI)
	ADDQ      $256, DI
	LEAQ      (SI)(R12*4), SI
	SUBQ      $4, R8

blk1:
	TESTQ  R8, R8
	JZ     done
	VPXORD Z0, Z0, Z0
	MOVQ   w_base+48(FP), BX
	MOVQ   SI, DX
	MOVQ   rows+72(FP), R9

row1:
	MOVQ DX, AX
	MOVQ R10, CX

grp1:
	VPBROADCASTD (AX), Z9
	VPDPBUSD     (BX), Z9, Z0
	ADDQ         $4, AX
	ADDQ         $64, BX
	DECQ         CX
	JNZ          grp1
	ADDQ         rowStride+88(FP), DX
	DECQ         R9
	JNZ          row1

	VMOVDQU32 Z0, (DI)
	ADDQ      $64, DI
	ADDQ      R12, SI
	DECQ      R8
	JMP       blk1

done:
	VZEROUPPER
	RET

// func convS8AVX2(acc []int32, x []uint8, w []int8, rows, k4, rowStride, pixStride int)
//
// Without VPDPBUSD the four taps of a channel are multiplied as 16-bit
// pairs: the weights of four channels sign-extend to 16 words, the pixel's
// four activations zero-extend and repeat four times, and VPMADDWD leaves
// two int32 partial sums per channel (products are at most 255·128, so a
// pair cannot overflow — VPMADDUBSW, which saturates its 16-bit sums, is
// not used). The partial sums stay apart until the end of the patch, where
// one VPHADDD per pixel joins them and a quadword permute puts the
// channels back in order. R11 is the half of the 16-channel block in
// hand: byte offset 0 or 32 into each weight group and each acc pixel.
#define S8_PIXEL_AVX2(addr, lo, hi) \
	VPBROADCASTD addr, X10;      \
	VPMOVZXBW    X10, Y10;       \
	VPMADDWD     Y10, Y8, Y11;   \
	VPADDD       Y11, lo, lo;    \
	VPMADDWD     Y10, Y9, Y11;   \
	VPADDD       Y11, hi, hi

#define S8_STORE_AVX2(lo, hi, off) \
	VPHADDD hi, lo, lo;         \
	VPERMQ  $0xD8, lo, lo;      \
	VMOVDQU lo, off(DI)(R11*1)

TEXT ·convS8AVX2(SB), NOSPLIT, $0-104
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), R8
	SHRQ $4, R8
	MOVQ x_base+24(FP), SI
	MOVQ k4+80(FP), R10
	MOVQ pixStride+96(FP), R12
	LEAQ (R12)(R12*2), R13

blk4:
	CMPQ R8, $4
	JLT  blk1
	XORQ R11, R11

half4:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ  w_base+48(FP), BX
	ADDQ  R11, BX
	MOVQ  SI, DX
	MOVQ  rows+72(FP), R9

row4:
	MOVQ DX, AX
	MOVQ R10, CX

grp4:
	VPMOVSXBW (BX), Y8
	VPMOVSXBW 16(BX), Y9
	S8_PIXEL_AVX2((AX), Y0, Y1)
	S8_PIXEL_AVX2((AX)(R12*1), Y2, Y3)
	S8_PIXEL_AVX2((AX)(R12*2), Y4, Y5)
	S8_PIXEL_AVX2((AX)(R13*1), Y6, Y7)
	ADDQ $4, AX
	ADDQ $64, BX
	DECQ CX
	JNZ  grp4
	ADDQ rowStride+88(FP), DX
	DECQ R9
	JNZ  row4

	S8_STORE_AVX2(Y0, Y1, 0)
	S8_STORE_AVX2(Y2, Y3, 64)
	S8_STORE_AVX2(Y4, Y5, 128)
	S8_STORE_AVX2(Y6, Y7, 192)
	ADDQ $32, R11
	CMPQ R11, $64
	JLT  half4
	ADDQ $256, DI
	LEAQ (SI)(R12*4), SI
	SUBQ $4, R8
	JMP  blk4

blk1:
	TESTQ R8, R8
	JZ    done
	XORQ  R11, R11

half1:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	MOVQ  w_base+48(FP), BX
	ADDQ  R11, BX
	MOVQ  SI, DX
	MOVQ  rows+72(FP), R9

row1:
	MOVQ DX, AX
	MOVQ R10, CX

grp1:
	VPMOVSXBW (BX), Y8
	VPMOVSXBW 16(BX), Y9
	S8_PIXEL_AVX2((AX), Y0, Y1)
	ADDQ $4, AX
	ADDQ $64, BX
	DECQ CX
	JNZ  grp1
	ADDQ rowStride+88(FP), DX
	DECQ R9
	JNZ  row1

	S8_STORE_AVX2(Y0, Y1, 0)
	ADDQ $32, R11
	CMPQ R11, $64
	JLT  half1
	ADDQ $64, DI
	ADDQ R12, SI
	DECQ R8
	JMP  blk1

done:
	VZEROUPPER
	RET

// The epilogue's fp32 half, on 16 (AVX-512) or 8 (AVX2) lanes:
// v = mult · float32(acc − corr) + bias, the product rounded before the add.
#define S8_SCALE(v, corr, mult, bias) \
	VPSUBD    corr, v, v; \
	VCVTDQ2PS v, v;       \
	VMULPS    mult, v, v; \
	VADDPS    bias, v, v

// func requantF32AVX512(dst []float32, acc []int32, b *S8Block, nch, pixStride, chanStride int)
//
// Two layouts, each written a cache line at a time. Channels adjacent (a
// dense output): one masked store per pixel. Pixels adjacent (an NCHW
// plane per channel): channel by channel, sixteen pixels of that channel
// gathered from the L1-resident accumulator block — 64 bytes apart — and
// stored as one line. Scattering a pixel's channels instead would touch 16
// lines per pixel, all in one cache set when a plane is a multiple of 4 KiB.
TEXT ·requantF32AVX512(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ acc_base+24(FP), SI
	MOVQ acc_len+32(FP), R9
	SHRQ $4, R9
	MOVQ b+48(FP), BX
	MOVQ nch+56(FP), R12
	MOVQ chanStride+72(FP), R11
	CMPQ R11, $1
	JNE  planar

	VMOVUPS   (BX), Z1
	VMOVUPS   64(BX), Z2
	VMOVDQU32 128(BX), Z3
	MOVQ      R12, CX
	MOVQ      $1, AX
	SHLQ      CX, AX
	DECQ      AX
	KMOVW     AX, K1
	MOVQ      pixStride+64(FP), R8
	SHLQ      $2, R8

adjacent:
	VMOVDQU32 (SI), Z0
	S8_SCALE(Z0, Z3, Z1, Z2)
	VMOVUPS   Z0, K1, (DI)
	ADDQ      $64, SI
	ADDQ      R8, DI
	DECQ      R9
	JNZ       adjacent
	VZEROUPPER
	RET

planar:
	SHLQ      $2, R11
	VMOVDQU32 s8Iota<>(SB), Z5
	VPSLLD    $4, Z5, Z5       // pixel p of a channel is 16p dwords on

chan:
	VPBROADCASTD (BX), Z1
	VPBROADCASTD 64(BX), Z2
	VPBROADCASTD 128(BX), Z3
	MOVQ         SI, AX
	MOVQ         DI, DX
	MOVQ         R9, R10

pix16:
	CMPQ       R10, $16
	JLT        pixtail
	KXNORW     K0, K0, K2
	VPGATHERDD (AX)(Z5*4), K2, Z0
	S8_SCALE(Z0, Z3, Z1, Z2)
	VMOVUPS    Z0, (DX)
	ADDQ       $1024, AX
	ADDQ       $64, DX
	SUBQ       $16, R10
	JMP        pix16

pixtail:
	TESTQ      R10, R10
	JZ         nextchan
	MOVQ       R10, CX
	MOVQ       $1, R8
	SHLQ       CX, R8
	DECQ       R8
	KMOVW      R8, K2
	KMOVW      R8, K3
	VPXORD     Z0, Z0, Z0
	VPGATHERDD (AX)(Z5*4), K2, Z0
	S8_SCALE(Z0, Z3, Z1, Z2)
	VMOVUPS    Z0, K3, (DX)

nextchan:
	ADDQ $4, SI
	ADDQ $4, BX
	ADDQ R11, DI
	DECQ R12
	JNZ  chan
	VZEROUPPER
	RET

// func requantF32AVX2(dst []float32, acc []int32, b *S8Block, nch, pixStride, chanStride int)
//
// The same two layouts on eight lanes; masks are vectors (count > lane).
TEXT ·requantF32AVX2(SB), NOSPLIT, $0-80
	MOVQ    dst_base+0(FP), DI
	MOVQ    acc_base+24(FP), SI
	MOVQ    acc_len+32(FP), R9
	SHRQ    $4, R9
	MOVQ    b+48(FP), BX
	MOVQ    nch+56(FP), R12
	MOVQ    chanStride+72(FP), R11
	VMOVDQU s8Iota<>(SB), Y7
	CMPQ    R11, $1
	JNE     planar

	VMOVUPS      (BX), Y1
	VMOVUPS      32(BX), Y2
	VMOVUPS      64(BX), Y3
	VMOVUPS      96(BX), Y4
	VMOVDQU      128(BX), Y5
	VMOVDQU      160(BX), Y6
	VMOVD        R12, X9
	VPBROADCASTD X9, Y9
	VPCMPGTD     Y7, Y9, Y10              // lanes 0–7 below nch
	VPCMPGTD     s8Iota<>+32(SB), Y9, Y11 // lanes 8–15
	MOVQ         pixStride+64(FP), R8
	SHLQ         $2, R8

adjacent:
	VMOVDQU    (SI), Y0
	S8_SCALE(Y0, Y5, Y1, Y3)
	VMASKMOVPS Y0, Y10, (DI)
	VMOVDQU    32(SI), Y0
	S8_SCALE(Y0, Y6, Y2, Y4)
	VMASKMOVPS Y0, Y11, 32(DI)
	ADDQ       $64, SI
	ADDQ       R8, DI
	DECQ       R9
	JNZ        adjacent
	VZEROUPPER
	RET

planar:
	SHLQ   $2, R11
	VPSLLD $4, Y7, Y12

chan:
	VPBROADCASTD (BX), Y1
	VPBROADCASTD 64(BX), Y2
	VPBROADCASTD 128(BX), Y3
	MOVQ         SI, AX
	MOVQ         DI, DX
	MOVQ         R9, R10

pix8:
	CMPQ       R10, $8
	JLT        pixtail
	VPCMPEQD   Y8, Y8, Y8
	VPGATHERDD Y8, (AX)(Y12*4), Y0
	S8_SCALE(Y0, Y3, Y1, Y2)
	VMOVUPS    Y0, (DX)
	ADDQ       $512, AX
	ADDQ       $32, DX
	SUBQ       $8, R10
	JMP        pix8

pixtail:
	TESTQ        R10, R10
	JZ           nextchan
	VMOVD        R10, X9
	VPBROADCASTD X9, Y9
	VPCMPGTD     Y7, Y9, Y8
	VMOVDQA      Y8, Y10
	VPXOR        Y0, Y0, Y0
	VPGATHERDD   Y8, (AX)(Y12*4), Y0
	S8_SCALE(Y0, Y3, Y1, Y2)
	VMASKMOVPS   Y0, Y10, (DX)

nextchan:
	ADDQ $4, SI
	ADDQ $4, BX
	ADDQ R11, DI
	DECQ R12
	JNZ  chan
	VZEROUPPER
	RET

// The quantizer, eight float64 lanes (AVX-512) or four (AVX2) at a time:
// t = v·inv + 128.5, NaN replaced by 128.5, clamped to [lo, 255],
// truncated to int32. MAX and MIN would pass a NaN through or drop it
// depending on operand order; the compare-and-merge in front pins it.
#define S8_QUANT512(t, q) \
	VMULPD     Z4, t, t;        \
	VADDPD     Z6, t, t;        \
	VCMPPD     $3, t, t, K3;     \
	VMOVAPD    Z6, K3, t;       \
	VMAXPD     Z5, t, t;        \
	VMINPD     Z7, t, t;        \
	VCVTTPD2DQ t, q

// S8_QUANT16 quantizes the 16 floats of Z0 into the 16 dwords of Z8, with
// inv, lo, 128.5 and 255 broadcast in Z4–Z7.
#define S8_QUANT16 \
	VCVTPS2PD     Y0, Z8;        \
	VEXTRACTF64X4 $1, Z0, Y9;    \
	VCVTPS2PD     Y9, Z9;        \
	S8_QUANT512(Z8, Y8);         \
	S8_QUANT512(Z9, Y9);         \
	VINSERTI64X4  $1, Y9, Z8, Z8

// func requantU8AVX512(dst []uint8, acc []int32, b *S8Block, inv, lo float64, nbytes, pixStride int)
//
// The down-converting store writes the low byte of each of the first
// nbytes lanes: the consumer's pixel may be narrower than the block.
TEXT ·requantU8AVX512(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), DI
	MOVQ         acc_base+24(FP), SI
	MOVQ         acc_len+32(FP), R9
	SHRQ         $4, R9
	MOVQ         b+48(FP), BX
	VMOVUPS      (BX), Z1
	VMOVUPS      64(BX), Z2
	VMOVDQU32    128(BX), Z3
	VBROADCASTSD inv+56(FP), Z4
	VBROADCASTSD lo+64(FP), Z5
	VBROADCASTSD s8Half<>(SB), Z6
	VBROADCASTSD s8Top<>(SB), Z7
	MOVQ         nbytes+72(FP), CX
	MOVQ         $1, AX
	SHLQ         CX, AX
	DECQ         AX
	KMOVW        AX, K1
	MOVQ         pixStride+80(FP), R8

loop:
	VMOVDQU32 (SI), Z0
	S8_SCALE(Z0, Z3, Z1, Z2)
	S8_QUANT16
	VPMOVDB Z8, K1, (DI)
	ADDQ    $64, SI
	ADDQ    R8, DI
	DECQ    R9
	JNZ     loop
	VZEROUPPER
	RET

// S8_QUANT8 quantizes the 8 floats of Y0 into 8 words in the low half of
// out (X register), with inv, lo, 128.5 and 255 broadcast in Y7–Y10.
#define S8_QUANT256(t, q) \
	VMULPD      Y7, t, t;        \
	VADDPD      Y9, t, t;        \
	VCMPPD      $3, t, t, Y15;   \
	VBLENDVPD   Y15, Y9, t, t;   \
	VMAXPD      Y8, t, t;        \
	VMINPD      Y10, t, t;       \
	VCVTTPD2DQY t, q

#define S8_QUANT8(out) \
	VCVTPS2PD    X0, Y11;        \
	VEXTRACTF128 $1, Y0, X12;    \
	VCVTPS2PD    X12, Y12;       \
	S8_QUANT256(Y11, out);       \
	S8_QUANT256(Y12, X12);       \
	VPACKUSDW    X12, out, out

// func requantU8AVX2(dst []uint8, acc []int32, b *S8Block, inv, lo float64, nbytes, pixStride int)
TEXT ·requantU8AVX2(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), DI
	MOVQ         acc_base+24(FP), SI
	MOVQ         acc_len+32(FP), R9
	SHRQ         $4, R9
	MOVQ         b+48(FP), BX
	VMOVUPS      (BX), Y1
	VMOVUPS      32(BX), Y2
	VMOVUPS      64(BX), Y3
	VMOVUPS      96(BX), Y4
	VMOVDQU      128(BX), Y5
	VMOVDQU      160(BX), Y6
	VBROADCASTSD inv+56(FP), Y7
	VBROADCASTSD lo+64(FP), Y8
	VBROADCASTSD s8Half<>(SB), Y9
	VBROADCASTSD s8Top<>(SB), Y10
	MOVQ         nbytes+72(FP), CX
	MOVQ         pixStride+80(FP), R8

loop:
	VMOVDQU (SI), Y0
	S8_SCALE(Y0, Y5, Y1, Y3)
	S8_QUANT8(X13)
	VMOVDQU 32(SI), Y0
	S8_SCALE(Y0, Y6, Y2, Y4)
	S8_QUANT8(X14)
	VPACKUSWB X14, X13, X13
	CMPQ      CX, $16
	JEQ       store16
	CMPQ      CX, $8
	JEQ       store8
	JLT       store4
	VMOVQ     X13, (DI)
	VPEXTRD   $2, X13, 8(DI)
	JMP       next

store16:
	VMOVDQU X13, (DI)
	JMP     next

store8:
	VMOVQ X13, (DI)
	JMP   next

store4:
	VMOVD X13, (DI)

next:
	ADDQ $64, SI
	ADDQ R8, DI
	DECQ R9
	JNZ  loop
	VZEROUPPER
	RET

// The quantizer's one-value form, for the ends of rows: X0 holds the
// float, the constants sit in lane 0 of the registers named, AX gets the
// byte.
#define S8_QUANT1(inv, lo, half, top) \
	VCVTSS2SD  X0, X0, X0;       \
	VMULSD     inv, X0, X0;      \
	VADDSD     half, X0, X0;     \
	VUCOMISD   X0, X0;           \
	JPC        2(PC);            \
	VMOVAPD    half, X0;         \
	VMAXSD     lo, X0, X0;       \
	VMINSD     top, X0, X0;      \
	VCVTTSD2SI X0, AX

#define S8_EXTRACT(i, x) \
	VPEXTRB $i, x, (DI); \
	ADDQ    R8, DI

// func quantizeU8AVX512(dst []uint8, src []float32, rows, n, dstPitch, stride int, inv float64)
//
// Sixteen floats become sixteen bytes; with stride 1 they are stored at
// once, otherwise byte by byte, stride apart (a channel plane going into
// channel-last pixels).
TEXT ·quantizeU8AVX512(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), DX
	MOVQ         src_base+24(FP), SI
	MOVQ         rows+48(FP), R9
	MOVQ         stride+72(FP), R8
	VBROADCASTSD inv+80(FP), Z4
	VPXORQ       Z5, Z5, Z5
	VBROADCASTSD s8Half<>(SB), Z6
	VBROADCASTSD s8Top<>(SB), Z7

row:
	MOVQ DX, DI
	MOVQ n+56(FP), CX

blk16:
	CMPQ    CX, $16
	JLT     tail
	VMOVUPS (SI), Z0
	S8_QUANT16
	VPMOVDB Z8, X8
	ADDQ    $64, SI
	SUBQ    $16, CX
	CMPQ    R8, $1
	JNE     strided
	VMOVDQU X8, (DI)
	ADDQ    $16, DI
	JMP     blk16

strided:
	S8_EXTRACT(0, X8)
	S8_EXTRACT(1, X8)
	S8_EXTRACT(2, X8)
	S8_EXTRACT(3, X8)
	S8_EXTRACT(4, X8)
	S8_EXTRACT(5, X8)
	S8_EXTRACT(6, X8)
	S8_EXTRACT(7, X8)
	S8_EXTRACT(8, X8)
	S8_EXTRACT(9, X8)
	S8_EXTRACT(10, X8)
	S8_EXTRACT(11, X8)
	S8_EXTRACT(12, X8)
	S8_EXTRACT(13, X8)
	S8_EXTRACT(14, X8)
	S8_EXTRACT(15, X8)
	JMP blk16

tail:
	TESTQ CX, CX
	JZ    nextrow

loop1:
	VMOVSS (SI), X0
	S8_QUANT1(X4, X5, X6, X7)
	MOVB   AL, (DI)
	ADDQ   $4, SI
	ADDQ   R8, DI
	DECQ   CX
	JNZ    loop1

nextrow:
	ADDQ dstPitch+64(FP), DX
	DECQ R9
	JNZ  row
	VZEROUPPER
	RET

// func quantizeU8AVX2(dst []uint8, src []float32, rows, n, dstPitch, stride int, inv float64)
TEXT ·quantizeU8AVX2(SB), NOSPLIT, $0-88
	MOVQ         dst_base+0(FP), DX
	MOVQ         src_base+24(FP), SI
	MOVQ         rows+48(FP), R9
	MOVQ         stride+72(FP), R8
	VBROADCASTSD inv+80(FP), Y7
	VXORPD       Y8, Y8, Y8
	VBROADCASTSD s8Half<>(SB), Y9
	VBROADCASTSD s8Top<>(SB), Y10

row:
	MOVQ DX, DI
	MOVQ n+56(FP), CX

blk8:
	CMPQ      CX, $8
	JLT       tail
	VMOVUPS   (SI), Y0
	S8_QUANT8(X13)
	VPACKUSWB X13, X13, X13
	ADDQ      $32, SI
	SUBQ      $8, CX
	CMPQ      R8, $1
	JNE       strided
	VMOVQ     X13, (DI)
	ADDQ      $8, DI
	JMP       blk8

strided:
	S8_EXTRACT(0, X13)
	S8_EXTRACT(1, X13)
	S8_EXTRACT(2, X13)
	S8_EXTRACT(3, X13)
	S8_EXTRACT(4, X13)
	S8_EXTRACT(5, X13)
	S8_EXTRACT(6, X13)
	S8_EXTRACT(7, X13)
	JMP blk8

tail:
	TESTQ CX, CX
	JZ    nextrow

loop1:
	VMOVSS (SI), X0
	S8_QUANT1(X7, X8, X9, X10)
	MOVB   AL, (DI)
	ADDQ   $4, SI
	ADDQ   R8, DI
	DECQ   CX
	JNZ    loop1

nextrow:
	ADDQ dstPitch+64(FP), DX
	DECQ R9
	JNZ  row
	VZEROUPPER
	RET

// func maxPool2x2U8AVX2(dst, r0, r1 []uint8, c int)
//
// c is a multiple of 16: per 16 channels, the byte maximum of the four
// pixels of the window, which sit c bytes apart in each row.
TEXT ·maxPool2x2U8AVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ r0_base+24(FP), SI
	MOVQ r1_base+48(FP), DX
	MOVQ c+72(FP), R8

pixel:
	TESTQ CX, CX
	JZ    done
	MOVQ  R8, AX

chunk:
	VMOVDQU (SI), X0
	VPMAXUB (SI)(R8*1), X0, X0
	VPMAXUB (DX), X0, X0
	VPMAXUB (DX)(R8*1), X0, X0
	VMOVDQU X0, (DI)
	ADDQ    $16, SI
	ADDQ    $16, DX
	ADDQ    $16, DI
	SUBQ    $16, AX
	JNZ     chunk
	ADDQ    R8, SI
	ADDQ    R8, DX
	SUBQ    R8, CX
	JMP     pixel

done:
	RET

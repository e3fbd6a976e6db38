//go:build amd64

#include "textflag.h"

// The packed weight-gradient kernels (wgrad.go), AVX-512 and AVX2 bodies.
// Lanes are C columns: each of sdotGeneric's sixteen lane sums is one
// vector of wgCols (or eight) columns, so its fold, 8-block, tree and tail
// are vertical adds in the scalar body's operand order. Multiply and add
// are separate instructions (never FMA); the products take A first, the
// sums the running value first.

// wgYMask holds eight live lanes then eight dead ones: the 8 floats at
// byte offset 32−4v are a VMASKMOVPS mask for v live lanes.
DATA wgYMask<>+0(SB)/8, $0xffffffffffffffff
DATA wgYMask<>+8(SB)/8, $0xffffffffffffffff
DATA wgYMask<>+16(SB)/8, $0xffffffffffffffff
DATA wgYMask<>+24(SB)/8, $0xffffffffffffffff
DATA wgYMask<>+32(SB)/8, $0
DATA wgYMask<>+40(SB)/8, $0
DATA wgYMask<>+48(SB)/8, $0
DATA wgYMask<>+56(SB)/8, $0
GLOBL wgYMask<>(SB), RODATA|NOPTR, $64

// func wgPackAVX512(dst, b []float32, idx *[16]int32, k, ow, pitch, ns, bs int)
//
// One VGATHERDPS per position: the sixteen B rows' element p, from the
// position's run offset (SI) and the row offsets in Z1. DX counts the
// positions left in the current output row; at its end SI skips the row's
// pitch−ow halo columns (R10, in bytes).
TEXT ·wgPackAVX512(SB), NOSPLIT, $0-96
	MOVQ      dst_base+0(FP), DI
	MOVQ      b_base+24(FP), R8
	MOVQ      idx+48(FP), AX
	VMOVDQU32 (AX), Z1
	MOVQ      ow+64(FP), R9
	MOVQ      pitch+72(FP), R10
	SUBQ      R9, R10
	SHLQ      $2, R10
	MOVQ      ns+80(FP), BX
	MOVQ      bs+88(FP), R11
	SHLQ      $2, R11
	KXNORW    K2, K2, K2

zsample:
	MOVQ R8, SI
	MOVQ k+56(FP), CX
	MOVQ R9, DX

zpos:
	KMOVW      K2, K1
	VGATHERDPS (SI)(Z1*4), K1, Z2
	VMOVUPS    Z2, (DI)
	ADDQ       $64, DI
	ADDQ       $4, SI
	DECQ       DX
	JNZ        znext
	ADDQ       R10, SI
	MOVQ       R9, DX

znext:
	DECQ CX
	JNZ  zpos
	ADDQ R11, R8
	DECQ BX
	JNZ  zsample
	VZEROUPPER
	RET

// func wgPackAVX2(dst, b []float32, idx *[16]int32, k, ow, pitch, ns, bs int)
//
// wgPackAVX512 with two eight-lane gathers per position (row offsets in
// Y1, Y2; the all-ones mask each gather consumes copied from Y15).
TEXT ·wgPackAVX2(SB), NOSPLIT, $0-96
	MOVQ     dst_base+0(FP), DI
	MOVQ     b_base+24(FP), R8
	MOVQ     idx+48(FP), AX
	VMOVDQU  (AX), Y1
	VMOVDQU  32(AX), Y2
	MOVQ     ow+64(FP), R9
	MOVQ     pitch+72(FP), R10
	SUBQ     R9, R10
	SHLQ     $2, R10
	MOVQ     ns+80(FP), BX
	MOVQ     bs+88(FP), R11
	SHLQ     $2, R11
	VPCMPEQD Y15, Y15, Y15

ysample:
	MOVQ R8, SI
	MOVQ k+56(FP), CX
	MOVQ R9, DX

ypos:
	VMOVDQU    Y15, Y3
	VGATHERDPS Y3, (SI)(Y1*4), Y4
	VMOVDQU    Y15, Y5
	VGATHERDPS Y5, (SI)(Y2*4), Y6
	VMOVUPS    Y4, (DI)
	VMOVUPS    Y6, 32(DI)
	ADDQ       $64, DI
	ADDQ       $4, SI
	DECQ       DX
	JNZ        ynext
	ADDQ       R10, SI
	MOVQ       R9, DX

ynext:
	DECQ CX
	JNZ  ypos
	ADDQ R11, R8
	DECQ BX
	JNZ  ysample
	VZEROUPPER
	RET

// ZWGMUL starts one lane sum from its first product: acc = a[ao]·b[bo],
// A's element broadcast from SI, B's column vector at DI.
#define ZWGMUL(ao, bo, acc) \
	VBROADCASTSS ao(SI), Z17; \
	VMULPS       bo(DI), Z17, acc

// ZWGMAD adds one product to a lane sum: acc += a[ao]·b[bo].
#define ZWGMAD(ao, bo, acc) \
	VBROADCASTSS ao(SI), Z17;      \
	VMULPS       bo(DI), Z17, Z18; \
	VADDPS       Z18, acc, acc

// func wgTileAVX512(m, w, k, ns int, a []float32, lda, as int, pk []float32, c []float32, ldc int)
//
// One C row at a time, its w ≤ 16 columns one ZMM (Z16) under the lane
// mask K1, loaded once and stored once whatever the sample count. Per
// sample, Z0–Z15 are the sixteen lane sums (Z0–Z7 sdotGeneric's s, Z8–Z15
// its r): the first 16-block's products start them, each later block adds
// to them; then the fold, the 8-block, the tree and the tail, one add per
// step, and Z16 += (+0 + sum). The +0 at the end stands for the +0 each
// lane sum starts from in the scalar body (see wgTile).
//
// R8 A row r of sample 0, R9 = lda, R10 = as, R13 = ldc (bytes), R12 C
// row, CX rows left, BX samples, DX whole 16-blocks, R11 = k mod 16, AX
// the current sample's A row, SI/DI A/B cursors, R14 samples left, R15
// blocks or tail steps left, Z31 = +0.
TEXT ·wgTileAVX512(SB), NOSPLIT, $0-128
	MOVQ   w+8(FP), CX
	MOVL   $1, SI
	SHLL   CX, SI
	DECL   SI
	KMOVW  SI, K1                  // the w live columns
	MOVQ   m+0(FP), CX
	MOVQ   k+16(FP), DX
	MOVQ   DX, R11
	ANDQ   $15, R11
	SHRQ   $4, DX
	MOVQ   ns+24(FP), BX
	MOVQ   a_base+32(FP), R8
	MOVQ   lda+56(FP), R9
	SHLQ   $2, R9
	MOVQ   as+64(FP), R10
	SHLQ   $2, R10
	MOVQ   c_base+96(FP), R12
	MOVQ   ldc+120(FP), R13
	SHLQ   $2, R13
	VPXORD Z31, Z31, Z31

zrow:
	VMOVUPS.Z (R12), K1, Z16
	MOVQ      pk_base+72(FP), DI
	MOVQ      R8, AX
	MOVQ      BX, R14

zsamp:
	MOVQ  AX, SI
	MOVQ  DX, R15
	TESTQ R15, R15
	JZ    znoblk
	ZWGMUL(0, 0, Z0)
	ZWGMUL(4, 64, Z1)
	ZWGMUL(8, 128, Z2)
	ZWGMUL(12, 192, Z3)
	ZWGMUL(16, 256, Z4)
	ZWGMUL(20, 320, Z5)
	ZWGMUL(24, 384, Z6)
	ZWGMUL(28, 448, Z7)
	ZWGMUL(32, 512, Z8)
	ZWGMUL(36, 576, Z9)
	ZWGMUL(40, 640, Z10)
	ZWGMUL(44, 704, Z11)
	ZWGMUL(48, 768, Z12)
	ZWGMUL(52, 832, Z13)
	ZWGMUL(56, 896, Z14)
	ZWGMUL(60, 960, Z15)
	ADDQ  $64, SI
	ADDQ  $1024, DI
	DECQ  R15
	JZ    zfold

zblk:
	ZWGMAD(0, 0, Z0)
	ZWGMAD(4, 64, Z1)
	ZWGMAD(8, 128, Z2)
	ZWGMAD(12, 192, Z3)
	ZWGMAD(16, 256, Z4)
	ZWGMAD(20, 320, Z5)
	ZWGMAD(24, 384, Z6)
	ZWGMAD(28, 448, Z7)
	ZWGMAD(32, 512, Z8)
	ZWGMAD(36, 576, Z9)
	ZWGMAD(40, 640, Z10)
	ZWGMAD(44, 704, Z11)
	ZWGMAD(48, 768, Z12)
	ZWGMAD(52, 832, Z13)
	ZWGMAD(56, 896, Z14)
	ZWGMAD(60, 960, Z15)
	ADDQ $64, SI
	ADDQ $1024, DI
	DECQ R15
	JNZ  zblk

zfold:
	VADDPS Z8, Z0, Z0
	VADDPS Z9, Z1, Z1
	VADDPS Z10, Z2, Z2
	VADDPS Z11, Z3, Z3
	VADDPS Z12, Z4, Z4
	VADDPS Z13, Z5, Z5
	VADDPS Z14, Z6, Z6
	VADDPS Z15, Z7, Z7
	JMP    zeight

znoblk:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7

zeight:
	CMPQ R11, $8
	JLT  ztree
	ZWGMAD(0, 0, Z0)
	ZWGMAD(4, 64, Z1)
	ZWGMAD(8, 128, Z2)
	ZWGMAD(12, 192, Z3)
	ZWGMAD(16, 256, Z4)
	ZWGMAD(20, 320, Z5)
	ZWGMAD(24, 384, Z6)
	ZWGMAD(28, 448, Z7)
	ADDQ $32, SI
	ADDQ $512, DI

ztree:
	VADDPS Z4, Z0, Z0
	VADDPS Z5, Z1, Z1
	VADDPS Z6, Z2, Z2
	VADDPS Z7, Z3, Z3
	VADDPS Z2, Z0, Z0
	VADDPS Z3, Z1, Z1
	VADDPS Z1, Z0, Z0
	MOVQ   R11, R15
	ANDQ   $7, R15
	JZ     zsum

ztail:
	ZWGMAD(0, 0, Z0)
	ADDQ $4, SI
	ADDQ $64, DI
	DECQ R15
	JNZ  ztail

zsum:
	VADDPS Z0, Z31, Z0
	VADDPS Z0, Z16, Z16
	ADDQ   R10, AX
	DECQ   R14
	JNZ    zsamp
	VMOVUPS Z16, K1, (R12)
	ADDQ    R9, R8
	ADDQ    R13, R12
	DECQ    CX
	JNZ     zrow
	VZEROUPPER
	RET

// YWGMUL / YWGMAD are ZWGMUL / ZWGMAD on eight columns.
#define YWGMUL(ao, bo, acc) \
	VBROADCASTSS ao(SI), Y9; \
	VMULPS       bo(DI), Y9, acc

#define YWGMAD(ao, bo, acc) \
	VBROADCASTSS ao(SI), Y9;      \
	VMULPS       bo(DI), Y9, Y10; \
	VADDPS       Y10, acc, acc

// YWGPASS runs one group of eight lane sums (lanes lo..lo+7 of every
// 16-block) into Y0–Y7 over the DX whole blocks from SI/DI; it falls into
// done with the cursors one block past the last.
#define YWGPASS(loop, done) \
	MOVQ DX, R15;            \
	YWGMUL(0, 0, Y0);        \
	YWGMUL(4, 64, Y1);       \
	YWGMUL(8, 128, Y2);      \
	YWGMUL(12, 192, Y3);     \
	YWGMUL(16, 256, Y4);     \
	YWGMUL(20, 320, Y5);     \
	YWGMUL(24, 384, Y6);     \
	YWGMUL(28, 448, Y7);     \
	ADDQ $64, SI;            \
	ADDQ $1024, DI;          \
	DECQ R15;                \
	JZ   done;               \
loop:                        \
	YWGMAD(0, 0, Y0);        \
	YWGMAD(4, 64, Y1);       \
	YWGMAD(8, 128, Y2);      \
	YWGMAD(12, 192, Y3);     \
	YWGMAD(16, 256, Y4);     \
	YWGMAD(20, 320, Y5);     \
	YWGMAD(24, 384, Y6);     \
	YWGMAD(28, 448, Y7);     \
	ADDQ $64, SI;            \
	ADDQ $1024, DI;          \
	DECQ R15;                \
	JNZ  loop;               \
done:

// func wgTileAVX2(m, w, k, ns int, a []float32, lda, as int, pk []float32, c []float32, ldc int)
//
// wgTileAVX512 on eight columns at a time: the block's two halves run one
// after the other (w and the pk and c bases in the argument frame step to
// the second). Sixteen lane sums do not fit beside a C vector in sixteen
// YMM registers, so the s group runs first over every block and waits in
// the frame (0–255(SP)) while the r group runs; the fold then adds them,
// s first. 256(SP) keeps the sample's first B address. Registers as the
// AVX-512 body; Y8 the C vector, Y11 = +0, Y12 its lane mask.
TEXT ·wgTileAVX2(SB), NOSPLIT, $264-128
	MOVQ   k+16(FP), DX
	MOVQ   DX, R11
	ANDQ   $15, R11
	SHRQ   $4, DX
	MOVQ   ns+24(FP), BX
	MOVQ   lda+56(FP), R9
	SHLQ   $2, R9
	MOVQ   as+64(FP), R10
	SHLQ   $2, R10
	MOVQ   ldc+120(FP), R13
	SHLQ   $2, R13
	VXORPS Y11, Y11, Y11

yhalf:
	MOVQ    w+8(FP), AX
	MOVQ    $8, CX
	CMPQ    AX, CX
	CMOVQLT AX, CX
	NEGQ    CX
	LEAQ    wgYMask<>(SB), SI
	VMOVDQU 32(SI)(CX*4), Y12
	MOVQ    m+0(FP), CX
	MOVQ    a_base+32(FP), R8
	MOVQ    c_base+96(FP), R12

yrow:
	VMASKMOVPS (R12), Y12, Y8
	MOVQ       pk_base+72(FP), DI
	MOVQ       R8, AX
	MOVQ       BX, R14

ysamp:
	MOVQ  AX, SI
	MOVQ  DI, 256(SP)
	TESTQ DX, DX
	JZ    ynoblk
	YWGPASS(yblk1, yspill)
	VMOVUPS Y0, 0(SP)
	VMOVUPS Y1, 32(SP)
	VMOVUPS Y2, 64(SP)
	VMOVUPS Y3, 96(SP)
	VMOVUPS Y4, 128(SP)
	VMOVUPS Y5, 160(SP)
	VMOVUPS Y6, 192(SP)
	VMOVUPS Y7, 224(SP)
	LEAQ    32(AX), SI
	MOVQ    256(SP), DI
	ADDQ    $512, DI
	YWGPASS(yblk2, yfold)
	VMOVUPS 0(SP), Y9
	VADDPS  Y0, Y9, Y0
	VMOVUPS 32(SP), Y9
	VADDPS  Y1, Y9, Y1
	VMOVUPS 64(SP), Y9
	VADDPS  Y2, Y9, Y2
	VMOVUPS 96(SP), Y9
	VADDPS  Y3, Y9, Y3
	VMOVUPS 128(SP), Y9
	VADDPS  Y4, Y9, Y4
	VMOVUPS 160(SP), Y9
	VADDPS  Y5, Y9, Y5
	VMOVUPS 192(SP), Y9
	VADDPS  Y6, Y9, Y6
	VMOVUPS 224(SP), Y9
	VADDPS  Y7, Y9, Y7
	SUBQ    $32, SI
	SUBQ    $512, DI
	JMP     yeight

ynoblk:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

yeight:
	CMPQ R11, $8
	JLT  ytree
	YWGMAD(0, 0, Y0)
	YWGMAD(4, 64, Y1)
	YWGMAD(8, 128, Y2)
	YWGMAD(12, 192, Y3)
	YWGMAD(16, 256, Y4)
	YWGMAD(20, 320, Y5)
	YWGMAD(24, 384, Y6)
	YWGMAD(28, 448, Y7)
	ADDQ $32, SI
	ADDQ $512, DI

ytree:
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	VADDPS Y2, Y0, Y0
	VADDPS Y3, Y1, Y1
	VADDPS Y1, Y0, Y0
	MOVQ   R11, R15
	ANDQ   $7, R15
	JZ     ysum

ytail:
	YWGMAD(0, 0, Y0)
	ADDQ $4, SI
	ADDQ $64, DI
	DECQ R15
	JNZ  ytail

ysum:
	VADDPS     Y0, Y11, Y0
	VADDPS     Y0, Y8, Y8
	ADDQ       R10, AX
	DECQ       R14
	JNZ        ysamp
	VMASKMOVPS Y8, Y12, (R12)
	ADDQ       R9, R8
	ADDQ       R13, R12
	DECQ       CX
	JNZ        yrow
	SUBQ       $8, w+8(FP)
	JLE        ydone
	ADDQ       $32, pk_base+72(FP)
	ADDQ       $32, c_base+96(FP)
	JMP        yhalf

ydone:
	VZEROUPPER
	RET

//go:build amd64

#include "textflag.h"

// The fp32 GEMM's two register-tile micro-kernels (gemm_tile.go) and the
// direct convolution's tile (conv_tile.go), AVX-512 and AVX2 bodies.
// Multiply and add are separate instructions everywhere (never FMA) and
// every C element sees the operations of the scalar body in the scalar
// body's order, so all three tables agree bit for bit.

// TILEROW2 is one k step of one C row of a two-vector tile: acc += a·b for
// the row's A element at aaddr and the step's B vectors b0, b1. An A element
// of ±0 (all bits but the sign clear) skips the row's update — the scalar
// body's zero-skip — before anything is broadcast. Operand order follows
// the scalar code (the product takes B first, the sum takes the product
// first), which is what decides the payload when two NaNs meet.
#define TILEROW2(aaddr, acc0, acc1, b0, b1, t0, t1, skip) \
	MOVL         aaddr, AX;      \
	ADDL         AX, AX;         \
	JZ           skip;           \
	VBROADCASTSS aaddr, t0;      \
	VMULPS       t0, b0, t1;     \
	VMULPS       t0, b1, t0;     \
	VADDPS       acc0, t1, acc0; \
	VADDPS       acc1, t0, acc1; \
skip:

// TILEROW1 is TILEROW2 for a one-vector tile.
#define TILEROW1(aaddr, acc0, b0, t0, skip) \
	MOVL         aaddr, AX;      \
	ADDL         AX, AX;         \
	JZ           skip;           \
	VBROADCASTSS aaddr, t0;      \
	VMULPS       t0, b0, t0;     \
	VADDPS       acc0, t0, acc0; \
skip:

// ZLOADC / ZSTOREC move one two-vector C row at AX under the column masks
// and step AX to the next row.
#define ZLOADC(acc0, acc1) \
	VMOVUPS.Z (AX), K1, acc0;   \
	VMOVUPS.Z 64(AX), K2, acc1; \
	ADDQ      R13, AX

#define ZSTOREC(acc0, acc1) \
	VMOVUPS acc0, K1, (AX);   \
	VMOVUPS acc1, K2, 64(AX); \
	ADDQ    R13, AX

// ZLOADC1 / ZSTOREC1 are the one-vector forms.
#define ZLOADC1(acc0) \
	VMOVUPS.Z (AX), K1, acc0; \
	ADDQ      R13, AX

#define ZSTOREC1(acc0) \
	VMOVUPS acc0, K1, (AX); \
	ADDQ    R13, AX

// ZCOLBLOCK starts one column block of up to 32 columns: R15 columns are
// left. It points DI at the block's first B element and BX at the panel's
// first C element of the block, sets K1/K2 to the block's live lanes,
// rewinds the A pointers and loads the k counter.
#define ZCOLBLOCK \
	MOVQ    n+8(FP), AX;       \
	SUBQ    R15, AX;           \
	MOVQ    b_base+64(FP), DI; \
	LEAQ    (DI)(AX*4), DI;    \
	LEAQ    (R11)(AX*4), BX;   \
	MOVQ    $32, CX;           \
	CMPQ    R15, CX;           \
	CMOVQLT R15, CX;           \
	MOVL    $1, AX;            \
	SHLQ    CX, AX;            \
	DECQ    AX;                \
	KMOVW   AX, K1;            \
	SHRQ    $16, AX;           \
	KMOVW   AX, K2;            \
	MOVQ    R14, SI;           \
	LEAQ    (R14)(R8*4), R10;  \
	MOVQ    k+16(FP), CX

// ZCONVBLOCK is ZCOLBLOCK for convTileAVX512: DI is the block's first
// column of the image, so that B row p is at DI + 4·off[p], and R12 walks
// the offset table from its start. This and YCONVBLOCK name convTile's
// arguments, so they are defined ahead of every TEXT block, where vet does
// not tie them to another function's frame.
#define ZCONVBLOCK \
	MOVQ    n+8(FP), AX;         \
	SUBQ    R15, AX;             \
	MOVQ    b_base+56(FP), DI;   \
	LEAQ    (DI)(AX*4), DI;      \
	LEAQ    (R11)(AX*4), BX;     \
	MOVQ    $32, CX;             \
	CMPQ    R15, CX;             \
	CMOVQLT R15, CX;             \
	MOVL    $1, AX;              \
	SHLQ    CX, AX;              \
	DECQ    AX;                  \
	KMOVW   AX, K1;              \
	SHRQ    $16, AX;             \
	KMOVW   AX, K2;              \
	MOVQ    R14, SI;             \
	LEAQ    (R14)(R8*4), R10;    \
	MOVQ    off_base+80(FP), R12; \
	MOVQ    k+16(FP), CX

// YCONVBLOCK is YCOLBLOCK for convTileAVX2 (see ZCONVBLOCK).
#define YCONVBLOCK \
	MOVQ    n+8(FP), AX;          \
	SUBQ    R15, AX;              \
	MOVQ    b_base+56(FP), DI;    \
	LEAQ    (DI)(AX*4), DI;       \
	LEAQ    (R11)(AX*4), BX;      \
	MOVQ    $16, CX;              \
	CMPQ    R15, CX;              \
	CMOVQLT R15, CX;              \
	MOVQ    $8, AX;               \
	CMPQ    CX, AX;               \
	CMOVQLT CX, AX;               \
	SUBQ    AX, CX;               \
	NEGQ    AX;                   \
	NEGQ    CX;                   \
	LEAQ    tileMask<>(SB), R10;  \
	VMOVDQU 32(R10)(AX*4), Y10;   \
	VMOVDQU 32(R10)(CX*4), Y11;   \
	MOVQ    R14, SI;              \
	MOVQ    off_base+80(FP), R12; \
	MOVQ    k+16(FP), CX

// func gemmTileAVX512(mr, n, k int, a []float32, ars, aps int, b []float32, ldb int, c []float32, ldc int)
//
// A panel of 8 rows runs as 8×32 tiles (16 ZMM accumulators, two B vectors
// per k step, eight broadcasts straight from A), 8×16 when 16 or fewer
// columns are left; a shorter panel runs 4 rows at a time and then row by
// row. The column tail is the same body under a lane mask.
//
// SI/R10 A rows 0-3/4-7 at the current k step, R8 = ars, R9 = 3·ars,
// DX = aps, DI B row, R12 = ldb, BX C block, R13 = ldc (all in bytes);
// R14/R11 the panel's first A/C element, R15 columns left, CX k steps left.
TEXT ·gemmTileAVX512(SB), NOSPLIT, $0-128
	MOVQ a_base+24(FP), R14
	MOVQ ars+48(FP), R8
	MOVQ aps+56(FP), DX
	MOVQ ldb+88(FP), R12
	MOVQ c_base+96(FP), R11
	MOVQ ldc+120(FP), R13
	SHLQ $2, R8
	SHLQ $2, DX
	SHLQ $2, R12
	SHLQ $2, R13
	LEAQ (R8)(R8*2), R9

	CMPQ mr+0(FP), $8
	JEQ  panel8
	CMPQ mr+0(FP), $4
	JLT  panel1

	// Four rows.
	MOVQ n+8(FP), R15

col4:
	ZCOLBLOCK
	MOVQ BX, AX
	ZLOADC(Z0, Z1)
	ZLOADC(Z2, Z3)
	ZLOADC(Z4, Z5)
	ZLOADC(Z6, Z7)
	TESTQ CX, CX
	JZ    store4

k4:
	VMOVUPS.Z (DI), K1, Z30
	VMOVUPS.Z 64(DI), K2, Z31
	TILEROW2((SI), Z0, Z1, Z30, Z31, Z28, Z29, z4r0)
	TILEROW2((SI)(R8*1), Z2, Z3, Z30, Z31, Z26, Z27, z4r1)
	TILEROW2((SI)(R8*2), Z4, Z5, Z30, Z31, Z24, Z25, z4r2)
	TILEROW2((SI)(R9*1), Z6, Z7, Z30, Z31, Z22, Z23, z4r3)
	ADDQ DX, SI
	ADDQ R12, DI
	DECQ CX
	JNZ  k4

store4:
	MOVQ BX, AX
	ZSTOREC(Z0, Z1)
	ZSTOREC(Z2, Z3)
	ZSTOREC(Z4, Z5)
	ZSTOREC(Z6, Z7)
	SUBQ $32, R15
	JG   col4

	LEAQ (R14)(R8*4), R14
	LEAQ (R11)(R13*4), R11
	SUBQ $4, mr+0(FP)

	// The rows left over, one at a time.
panel1:
	CMPQ mr+0(FP), $0
	JLE  done
	MOVQ n+8(FP), R15

col1:
	ZCOLBLOCK
	MOVQ BX, AX
	ZLOADC(Z0, Z1)
	TESTQ CX, CX
	JZ    store1

k1:
	VMOVUPS.Z (DI), K1, Z30
	VMOVUPS.Z 64(DI), K2, Z31
	TILEROW2((SI), Z0, Z1, Z30, Z31, Z28, Z29, z1r0)
	ADDQ DX, SI
	ADDQ R12, DI
	DECQ CX
	JNZ  k1

store1:
	MOVQ BX, AX
	ZSTOREC(Z0, Z1)
	SUBQ $32, R15
	JG   col1

	ADDQ R8, R14
	ADDQ R13, R11
	DECQ mr+0(FP)
	JMP  panel1

	// Eight rows.
panel8:
	MOVQ n+8(FP), R15

col8:
	ZCOLBLOCK
	CMPQ R15, $16
	JLE  col8x1
	MOVQ BX, AX
	ZLOADC(Z0, Z1)
	ZLOADC(Z2, Z3)
	ZLOADC(Z4, Z5)
	ZLOADC(Z6, Z7)
	ZLOADC(Z8, Z9)
	ZLOADC(Z10, Z11)
	ZLOADC(Z12, Z13)
	ZLOADC(Z14, Z15)
	TESTQ CX, CX
	JZ    store8

k8:
	VMOVUPS.Z (DI), K1, Z30
	VMOVUPS.Z 64(DI), K2, Z31
	TILEROW2((SI), Z0, Z1, Z30, Z31, Z28, Z29, z8r0)
	TILEROW2((SI)(R8*1), Z2, Z3, Z30, Z31, Z26, Z27, z8r1)
	TILEROW2((SI)(R8*2), Z4, Z5, Z30, Z31, Z24, Z25, z8r2)
	TILEROW2((SI)(R9*1), Z6, Z7, Z30, Z31, Z22, Z23, z8r3)
	TILEROW2((R10), Z8, Z9, Z30, Z31, Z20, Z21, z8r4)
	TILEROW2((R10)(R8*1), Z10, Z11, Z30, Z31, Z18, Z19, z8r5)
	TILEROW2((R10)(R8*2), Z12, Z13, Z30, Z31, Z16, Z17, z8r6)
	TILEROW2((R10)(R9*1), Z14, Z15, Z30, Z31, Z28, Z29, z8r7)
	ADDQ DX, SI
	ADDQ DX, R10
	ADDQ R12, DI
	DECQ CX
	JNZ  k8

store8:
	MOVQ BX, AX
	ZSTOREC(Z0, Z1)
	ZSTOREC(Z2, Z3)
	ZSTOREC(Z4, Z5)
	ZSTOREC(Z6, Z7)
	ZSTOREC(Z8, Z9)
	ZSTOREC(Z10, Z11)
	ZSTOREC(Z12, Z13)
	ZSTOREC(Z14, Z15)
	JMP next8

	// 16 or fewer columns left: one vector per row, so the eight chains
	// are not paired with eight idle ones.
col8x1:
	MOVQ BX, AX
	ZLOADC1(Z0)
	ZLOADC1(Z1)
	ZLOADC1(Z2)
	ZLOADC1(Z3)
	ZLOADC1(Z4)
	ZLOADC1(Z5)
	ZLOADC1(Z6)
	ZLOADC1(Z7)
	TESTQ CX, CX
	JZ    store8x1

k8x1:
	VMOVUPS.Z (DI), K1, Z30
	TILEROW1((SI), Z0, Z30, Z28, y8r0)
	TILEROW1((SI)(R8*1), Z1, Z30, Z27, y8r1)
	TILEROW1((SI)(R8*2), Z2, Z30, Z26, y8r2)
	TILEROW1((SI)(R9*1), Z3, Z30, Z25, y8r3)
	TILEROW1((R10), Z4, Z30, Z24, y8r4)
	TILEROW1((R10)(R8*1), Z5, Z30, Z23, y8r5)
	TILEROW1((R10)(R8*2), Z6, Z30, Z22, y8r6)
	TILEROW1((R10)(R9*1), Z7, Z30, Z21, y8r7)
	ADDQ DX, SI
	ADDQ DX, R10
	ADDQ R12, DI
	DECQ CX
	JNZ  k8x1

store8x1:
	MOVQ BX, AX
	ZSTOREC1(Z0)
	ZSTOREC1(Z1)
	ZSTOREC1(Z2)
	ZSTOREC1(Z3)
	ZSTOREC1(Z4)
	ZSTOREC1(Z5)
	ZSTOREC1(Z6)
	ZSTOREC1(Z7)

next8:
	SUBQ $32, R15
	JG   col8

done:
	VZEROUPPER
	RET

// ZDOT is one 16-float block of one dot of the 4×4 tile: acc += a·b, lane
// for lane — sdotGeneric's s and r groups are the halves of acc.
#define ZDOT(a, b, acc, t) \
	VMULPS b, a, t;     \
	VADDPS t, acc, acc

// ZFOLD folds the upper halves of two accumulators onto their lower halves
// (sdotGeneric's s += r) and leaves both 8-lane results side by side in u.
#define ZFOLD(acc0, acc1, u) \
	VSHUFF64X2 $0x44, acc1, acc0, Z24; \
	VSHUFF64X2 $0xEE, acc1, acc0, Z25; \
	VADDPS     Z25, Z24, u

// ROWS4 sets r1..r3 to the three rows after r0, stride bytes apart, for a
// panel or group of cnt live rows; a row past the end repeats the last
// live one, so that it can be read.
#define ROWS4(cnt, stride, r0, r1, r2, r3, done) \
	MOVQ r0, r1;     \
	MOVQ r0, r2;     \
	MOVQ r0, r3;     \
	CMPQ cnt, $2;    \
	JLT  done;       \
	ADDQ stride, r1; \
	MOVQ r1, r2;     \
	MOVQ r1, r3;     \
	CMPQ cnt, $3;    \
	JLT  done;       \
	ADDQ stride, r2; \
	MOVQ r2, r3;     \
	CMPQ cnt, $4;    \
	JLT  done;       \
	ADDQ stride, r3; \
done:

// func dotTileAVX512(mr, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int)
//
// Four rows of A against four rows of B at a time: sixteen dots, one ZMM
// accumulator each (Z(4r+q) for A row r, B row q), so sixteen add chains
// overlap and every loaded vector is used four times. Each accumulator then
// goes through sdotGeneric's reduction — fold, optional 8-block, tree —
// but four registers at a time: a shuffle pairs the halves (quarters,
// pairs, singles) of two registers so that one add performs that tree level
// for both, and the sixteen sums end up in one ZMM, lane r holding row r's
// four columns. Rows past mr and columns past n repeat the last live row;
// their sums are not stored.
//
// R8-R11 A rows, R12-R15 B rows of the current column group, AX byte offset
// into k, DI end of the whole 16-float blocks, BX C row 0 of the group,
// DX columns left, Z31 alpha.
TEXT ·dotTileAVX512(SB), NOSPLIT, $0-128
	MOVQ a_base+32(FP), R8
	MOVQ lda+56(FP), SI
	SHLQ $2, SI
	MOVQ mr+0(FP), CX
	ROWS4(CX, SI, R8, R9, R10, R11, arows)
	MOVQ b_base+64(FP), R12
	MOVQ c_base+96(FP), BX
	MOVQ n+8(FP), DX
	MOVQ k+16(FP), DI
	ANDQ $~15, DI
	SHLQ $2, DI
	SHLQ $2, ldb+88(FP)
	SHLQ $2, ldc+120(FP)
	VBROADCASTSS alpha+24(FP), Z31

group:
	MOVQ ldb+88(FP), SI
	ROWS4(DX, SI, R12, R13, R14, R15, brows)
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	VXORPS X4, X4, X4
	VXORPS X5, X5, X5
	VXORPS X6, X6, X6
	VXORPS X7, X7, X7
	VXORPS X8, X8, X8
	VXORPS X9, X9, X9
	VXORPS X10, X10, X10
	VXORPS X11, X11, X11
	VXORPS X12, X12, X12
	VXORPS X13, X13, X13
	VXORPS X14, X14, X14
	VXORPS X15, X15, X15
	XORQ   AX, AX
	CMPQ   AX, DI
	JGE    fold

blk:
	VMOVUPS (R8)(AX*1), Z16
	VMOVUPS (R9)(AX*1), Z17
	VMOVUPS (R10)(AX*1), Z18
	VMOVUPS (R11)(AX*1), Z19
	VMOVUPS (R12)(AX*1), Z20
	VMOVUPS (R13)(AX*1), Z21
	VMOVUPS (R14)(AX*1), Z22
	VMOVUPS (R15)(AX*1), Z23
	ZDOT(Z16, Z20, Z0, Z24)
	ZDOT(Z16, Z21, Z1, Z25)
	ZDOT(Z16, Z22, Z2, Z26)
	ZDOT(Z16, Z23, Z3, Z27)
	ZDOT(Z17, Z20, Z4, Z28)
	ZDOT(Z17, Z21, Z5, Z29)
	ZDOT(Z17, Z22, Z6, Z30)
	ZDOT(Z17, Z23, Z7, Z24)
	ZDOT(Z18, Z20, Z8, Z25)
	ZDOT(Z18, Z21, Z9, Z26)
	ZDOT(Z18, Z22, Z10, Z27)
	ZDOT(Z18, Z23, Z11, Z28)
	ZDOT(Z19, Z20, Z12, Z29)
	ZDOT(Z19, Z21, Z13, Z30)
	ZDOT(Z19, Z22, Z14, Z24)
	ZDOT(Z19, Z23, Z15, Z25)
	ADDQ $64, AX
	CMPQ AX, DI
	JLT  blk

fold:
	// Z(16+q) = [u(0,q) | u(1,q)], Z(20+q) = [u(2,q) | u(3,q)].
	ZFOLD(Z0, Z4, Z16)
	ZFOLD(Z1, Z5, Z17)
	ZFOLD(Z2, Z6, Z18)
	ZFOLD(Z3, Z7, Z19)
	ZFOLD(Z8, Z12, Z20)
	ZFOLD(Z9, Z13, Z21)
	ZFOLD(Z10, Z14, Z22)
	ZFOLD(Z11, Z15, Z23)
	TESTQ $8, k+16(FP)
	JZ    tree

	// The 8-float block lands on the folded sums: Z0/Z1 hold A rows
	// 0|1 and 2|3, Z2-Z5 one B row each in both halves.
	VMOVUPS         (R8)(AX*1), Y0
	VINSERTF64X4    $1, (R9)(AX*1), Z0, Z0
	VMOVUPS         (R10)(AX*1), Y1
	VINSERTF64X4    $1, (R11)(AX*1), Z1, Z1
	VBROADCASTF64X4 (R12)(AX*1), Z2
	VBROADCASTF64X4 (R13)(AX*1), Z3
	VBROADCASTF64X4 (R14)(AX*1), Z4
	VBROADCASTF64X4 (R15)(AX*1), Z5
	ZDOT(Z0, Z2, Z16, Z24)
	ZDOT(Z0, Z3, Z17, Z25)
	ZDOT(Z0, Z4, Z18, Z26)
	ZDOT(Z0, Z5, Z19, Z27)
	ZDOT(Z1, Z2, Z20, Z28)
	ZDOT(Z1, Z3, Z21, Z29)
	ZDOT(Z1, Z4, Z22, Z30)
	ZDOT(Z1, Z5, Z23, Z24)
	ADDQ $32, AX

tree:
	// Upper quarter onto lower: Z(q) = [t(0,q), t(1,q), t(2,q), t(3,q)],
	// four lanes each.
	VSHUFF64X2 $0x88, Z20, Z16, Z24
	VSHUFF64X2 $0xDD, Z20, Z16, Z25
	VADDPS     Z25, Z24, Z0
	VSHUFF64X2 $0x88, Z21, Z17, Z24
	VSHUFF64X2 $0xDD, Z21, Z17, Z25
	VADDPS     Z25, Z24, Z1
	VSHUFF64X2 $0x88, Z22, Z18, Z24
	VSHUFF64X2 $0xDD, Z22, Z18, Z25
	VADDPS     Z25, Z24, Z2
	VSHUFF64X2 $0x88, Z23, Z19, Z24
	VSHUFF64X2 $0xDD, Z23, Z19, Z25
	VADDPS     Z25, Z24, Z3

	// Lanes 2,3 onto 0,1 for columns 0|1 and 2|3, then the final pair.
	VSHUFPS $0x44, Z1, Z0, Z24
	VSHUFPS $0xEE, Z1, Z0, Z25
	VADDPS  Z25, Z24, Z4
	VSHUFPS $0x44, Z3, Z2, Z24
	VSHUFPS $0xEE, Z3, Z2, Z25
	VADDPS  Z25, Z24, Z5
	VSHUFPS $0x88, Z5, Z4, Z24
	VSHUFPS $0xDD, Z5, Z4, Z25
	VADDPS  Z25, Z24, Z0

	MOVQ k+16(FP), CX
	ANDQ $7, CX
	JZ   scale

tail:
	// One scalar-tail term for all sixteen sums: row r's A element across
	// lane r, the four B elements in every lane.
	VBROADCASTSS (R8)(AX*1), X1
	VBROADCASTSS (R9)(AX*1), X2
	VBROADCASTSS (R10)(AX*1), X3
	VBROADCASTSS (R11)(AX*1), X4
	VINSERTF32X4 $1, X2, Z1, Z1
	VINSERTF32X4 $2, X3, Z1, Z1
	VINSERTF32X4 $3, X4, Z1, Z1
	VMOVSS       (R12)(AX*1), X5
	VINSERTPS    $0x10, (R13)(AX*1), X5, X5
	VINSERTPS    $0x20, (R14)(AX*1), X5, X5
	VINSERTPS    $0x30, (R15)(AX*1), X5, X5
	VSHUFF32X4   $0, Z5, Z5, Z5
	VMULPS       Z5, Z1, Z1
	VADDPS       Z1, Z0, Z0
	ADDQ         $4, AX
	DECQ         CX
	JNZ          tail

scale:
	// c += round(alpha·dot), the live rows and columns only.
	VMULPS  Z31, Z0, Z0
	MOVQ    $4, CX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	MOVL    $1, SI
	SHLQ    CX, SI
	DECQ    SI
	KMOVW   SI, K1
	MOVQ    ldc+120(FP), SI
	MOVQ    mr+0(FP), CX
	MOVQ    BX, AX
	VMOVUPS.Z (AX), K1, Z1
	VADDPS    X1, X0, X1
	VMOVUPS   Z1, K1, (AX)
	CMPQ      CX, $2
	JLT       next
	ADDQ          SI, AX
	VEXTRACTF32X4 $1, Z0, X2
	VMOVUPS.Z     (AX), K1, Z1
	VADDPS        X1, X2, X1
	VMOVUPS       Z1, K1, (AX)
	CMPQ          CX, $3
	JLT           next
	ADDQ          SI, AX
	VEXTRACTF32X4 $2, Z0, X2
	VMOVUPS.Z     (AX), K1, Z1
	VADDPS        X1, X2, X1
	VMOVUPS       Z1, K1, (AX)
	CMPQ          CX, $4
	JLT           next
	ADDQ          SI, AX
	VEXTRACTF32X4 $3, Z0, X2
	VMOVUPS.Z     (AX), K1, Z1
	VADDPS        X1, X2, X1
	VMOVUPS       Z1, K1, (AX)

next:
	MOVQ ldb+88(FP), SI
	LEAQ (R15)(SI*1), R12
	ADDQ $16, BX
	SUBQ $4, DX
	JG   group
	VZEROUPPER
	RET

// tileMask holds eight live lanes then eight dead ones: the 8 floats at
// byte offset 32-4v are a VMASKMOVPS mask for v live columns.
DATA tileMask<>+0(SB)/8, $0xffffffffffffffff
DATA tileMask<>+8(SB)/8, $0xffffffffffffffff
DATA tileMask<>+16(SB)/8, $0xffffffffffffffff
DATA tileMask<>+24(SB)/8, $0xffffffffffffffff
DATA tileMask<>+32(SB)/8, $0
DATA tileMask<>+40(SB)/8, $0
DATA tileMask<>+48(SB)/8, $0
DATA tileMask<>+56(SB)/8, $0
GLOBL tileMask<>(SB), RODATA|NOPTR, $64

#define YLOADC(acc0, acc1) \
	VMASKMOVPS (AX), Y10, acc0;   \
	VMASKMOVPS 32(AX), Y11, acc1; \
	ADDQ       R13, AX

#define YSTOREC(acc0, acc1) \
	VMASKMOVPS acc0, Y10, (AX);   \
	VMASKMOVPS acc1, Y11, 32(AX); \
	ADDQ       R13, AX

// YCOLBLOCK is ZCOLBLOCK for 16-column blocks, the live columns as the
// lane masks Y10/Y11.
#define YCOLBLOCK \
	MOVQ    n+8(FP), AX;          \
	SUBQ    R15, AX;              \
	MOVQ    b_base+64(FP), DI;    \
	LEAQ    (DI)(AX*4), DI;       \
	LEAQ    (R11)(AX*4), BX;      \
	MOVQ    $16, CX;              \
	CMPQ    R15, CX;              \
	CMOVQLT R15, CX;              \
	MOVQ    $8, AX;               \
	CMPQ    CX, AX;               \
	CMOVQLT CX, AX;               \
	SUBQ    AX, CX;               \
	NEGQ    AX;                   \
	NEGQ    CX;                   \
	LEAQ    tileMask<>(SB), R10;  \
	VMOVDQU 32(R10)(AX*4), Y10;   \
	VMOVDQU 32(R10)(CX*4), Y11;   \
	MOVQ    R14, SI;              \
	MOVQ    k+16(FP), CX

// func gemmTileAVX2(mr, n, k int, a []float32, ars, aps int, b []float32, ldb int, c []float32, ldc int)
//
// The AVX-512 tile at half the width and half the registers: 4 rows × 16
// columns in eight YMM accumulators, the rows left over one at a time, the
// column tail under VMASKMOVPS masks. Registers as gemmTileAVX512, less R10.
TEXT ·gemmTileAVX2(SB), NOSPLIT, $0-128
	MOVQ a_base+24(FP), R14
	MOVQ ars+48(FP), R8
	MOVQ aps+56(FP), DX
	MOVQ ldb+88(FP), R12
	MOVQ c_base+96(FP), R11
	MOVQ ldc+120(FP), R13
	SHLQ $2, R8
	SHLQ $2, DX
	SHLQ $2, R12
	SHLQ $2, R13
	LEAQ (R8)(R8*2), R9

panel4:
	CMPQ mr+0(FP), $4
	JLT  panel1
	MOVQ n+8(FP), R15

col4:
	YCOLBLOCK
	MOVQ BX, AX
	YLOADC(Y0, Y1)
	YLOADC(Y2, Y3)
	YLOADC(Y4, Y5)
	YLOADC(Y6, Y7)
	TESTQ CX, CX
	JZ    store4

k4:
	VMASKMOVPS (DI), Y10, Y8
	VMASKMOVPS 32(DI), Y11, Y9
	TILEROW2((SI), Y0, Y1, Y8, Y9, Y12, Y13, y4r0)
	TILEROW2((SI)(R8*1), Y2, Y3, Y8, Y9, Y14, Y15, y4r1)
	TILEROW2((SI)(R8*2), Y4, Y5, Y8, Y9, Y12, Y13, y4r2)
	TILEROW2((SI)(R9*1), Y6, Y7, Y8, Y9, Y14, Y15, y4r3)
	ADDQ DX, SI
	ADDQ R12, DI
	DECQ CX
	JNZ  k4

store4:
	MOVQ BX, AX
	YSTOREC(Y0, Y1)
	YSTOREC(Y2, Y3)
	YSTOREC(Y4, Y5)
	YSTOREC(Y6, Y7)
	SUBQ $16, R15
	JG   col4

	LEAQ (R14)(R8*4), R14
	LEAQ (R11)(R13*4), R11
	SUBQ $4, mr+0(FP)
	JMP  panel4

panel1:
	CMPQ mr+0(FP), $0
	JLE  done
	MOVQ n+8(FP), R15

col1:
	YCOLBLOCK
	MOVQ BX, AX
	YLOADC(Y0, Y1)
	TESTQ CX, CX
	JZ    store1

k1:
	VMASKMOVPS (DI), Y10, Y8
	VMASKMOVPS 32(DI), Y11, Y9
	TILEROW2((SI), Y0, Y1, Y8, Y9, Y12, Y13, y1r0)
	ADDQ DX, SI
	ADDQ R12, DI
	DECQ CX
	JNZ  k1

store1:
	MOVQ BX, AX
	YSTOREC(Y0, Y1)
	SUBQ $16, R15
	JG   col1

	ADDQ R8, R14
	ADDQ R13, R11
	DECQ mr+0(FP)
	JMP  panel1

done:
	VZEROUPPER
	RET

// YDOT is one 16-float block of one dot of the 2×2 tile: the s group from
// the block's first eight floats, the r group from its last eight. alo/ahi
// hold the A row's block, boff(breg) is the B row's.
#define YDOT(alo, ahi, baddr, baddr8, s, r) \
	VMULPS baddr, alo, Y12;  \
	VMULPS baddr8, ahi, Y13; \
	VADDPS Y12, s, s;        \
	VADDPS Y13, r, r

// func dotTileAVX2(mr, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int)
//
// Two rows of A against two rows of B at a time: four dots, each with
// sdotGeneric's two 8-lane accumulators (Y(2d), Y(2d+1) for dot d = 2r+q),
// so eight add chains overlap. The four dots reduce together: merge, the
// optional 8-block, upper half onto lower, then two shuffles pair lanes so
// that one add does lanes 2,3 onto 0,1 for two dots and one more the final
// pair for all four — X0 ends as [dot(0,0), dot(0,1), dot(1,0), dot(1,1)].
// A row or column past the end repeats the last live one, unstored.
//
// R8/R9 A rows, R12/R13 B rows of the current column pair, AX byte offset
// into k, DI end of the whole 16-float blocks, BX C row 0 of the pair,
// DX columns left, R14 rows left, R10 = ldb, R11 = ldc in bytes.
TEXT ·dotTileAVX2(SB), NOSPLIT, $0-128
	MOVQ a_base+32(FP), R8
	MOVQ mr+0(FP), R14
	MOVQ k+16(FP), DI
	ANDQ $~15, DI
	SHLQ $2, DI
	MOVQ ldb+88(FP), R10
	MOVQ ldc+120(FP), R11
	SHLQ $2, R10
	SHLQ $2, R11
	SHLQ $2, lda+56(FP)

rowpair:
	MOVQ R8, R9
	CMPQ R14, $2
	JLT  arows
	ADDQ lda+56(FP), R9

arows:
	MOVQ b_base+64(FP), R12
	MOVQ c_base+96(FP), BX
	MOVQ n+8(FP), DX

group:
	MOVQ R12, R13
	CMPQ DX, $2
	JLT  brows
	ADDQ R10, R13

brows:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   AX, AX
	CMPQ   AX, DI
	JGE    merge

blk:
	VMOVUPS (R8)(AX*1), Y8
	VMOVUPS 32(R8)(AX*1), Y9
	VMOVUPS (R9)(AX*1), Y10
	VMOVUPS 32(R9)(AX*1), Y11
	YDOT(Y8, Y9, (R12)(AX*1), 32(R12)(AX*1), Y0, Y1)
	YDOT(Y8, Y9, (R13)(AX*1), 32(R13)(AX*1), Y2, Y3)
	YDOT(Y10, Y11, (R12)(AX*1), 32(R12)(AX*1), Y4, Y5)
	YDOT(Y10, Y11, (R13)(AX*1), 32(R13)(AX*1), Y6, Y7)
	ADDQ $64, AX
	CMPQ AX, DI
	JLT  blk

merge:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	TESTQ  $8, k+16(FP)
	JZ     tree

	VMOVUPS (R8)(AX*1), Y8
	VMOVUPS (R9)(AX*1), Y10
	VMULPS  (R12)(AX*1), Y8, Y12
	VMULPS  (R13)(AX*1), Y8, Y13
	VMULPS  (R12)(AX*1), Y10, Y14
	VMULPS  (R13)(AX*1), Y10, Y15
	VADDPS  Y12, Y0, Y0
	VADDPS  Y13, Y2, Y2
	VADDPS  Y14, Y4, Y4
	VADDPS  Y15, Y6, Y6
	ADDQ    $32, AX

tree:
	VEXTRACTF128 $1, Y0, X1
	VEXTRACTF128 $1, Y2, X3
	VEXTRACTF128 $1, Y4, X5
	VEXTRACTF128 $1, Y6, X7
	VADDPS       X1, X0, X0
	VADDPS       X3, X2, X2
	VADDPS       X5, X4, X4
	VADDPS       X7, X6, X6
	VSHUFPS      $0x44, X2, X0, X8
	VSHUFPS      $0xEE, X2, X0, X9
	VADDPS       X9, X8, X1
	VSHUFPS      $0x44, X6, X4, X8
	VSHUFPS      $0xEE, X6, X4, X9
	VADDPS       X9, X8, X3
	VSHUFPS      $0x88, X3, X1, X8
	VSHUFPS      $0xDD, X3, X1, X9
	VADDPS       X9, X8, X0

	MOVQ k+16(FP), CX
	ANDQ $7, CX
	JZ   scale

tail:
	// [a0, a0, a1, a1] · [b0, b1, b0, b1]
	VBROADCASTSS (R8)(AX*1), X1
	VBROADCASTSS (R9)(AX*1), X2
	VBLENDPS     $0xC, X2, X1, X1
	VMOVSS       (R12)(AX*1), X3
	VINSERTPS    $0x10, (R13)(AX*1), X3, X3
	VMOVLHPS     X3, X3, X3
	VMULPS       X3, X1, X1
	VADDPS       X1, X0, X0
	ADDQ         $4, AX
	DECQ         CX
	JNZ          tail

scale:
	// c += round(alpha·dot), the live rows and columns only.
	VBROADCASTSS alpha+24(FP), X1
	VMULPS       X1, X0, X0
	VMOVHLPS     X0, X0, X2
	CMPQ         DX, $2
	JLT          onecol
	VMOVSD       (BX), X1
	VADDPS       X1, X0, X1
	VMOVLPS      X1, (BX)
	CMPQ         R14, $2
	JLT          next
	VMOVSD       (BX)(R11*1), X1
	VADDPS       X1, X2, X1
	VMOVLPS      X1, (BX)(R11*1)
	JMP          next

onecol:
	VMOVSS (BX), X1
	VADDSS X1, X0, X1
	VMOVSS X1, (BX)
	CMPQ   R14, $2
	JLT    next
	VMOVSS (BX)(R11*1), X1
	VADDSS X1, X2, X1
	VMOVSS X1, (BX)(R11*1)

next:
	LEAQ (R13)(R10*1), R12
	ADDQ $8, BX
	SUBQ $2, DX
	JG   group

	// Next two rows of the panel.
	MOVQ lda+56(FP), AX
	LEAQ (R8)(AX*2), R8
	LEAQ (R11)(R11*1), AX
	ADDQ AX, c_base+96(FP)
	SUBQ $2, R14
	JG   rowpair
	VZEROUPPER
	RET

// func convTileAVX512(mr, n, k int, a []float32, lda int, b []float32, off []int, c []float32, ldc int)
//
// gemmTileAVX512's tiles and registers with two changes: the accumulators
// start at +0 instead of loading C, and step p loads its B vectors from
// DI + 4·off[p] — the table entry goes through AX, which the first tile
// row's zero test then reuses — instead of stepping DI by ldb. A's k steps
// are one float apart (aps = 1), so DX is unused.
TEXT ·convTileAVX512(SB), NOSPLIT, $0-136
	MOVQ a_base+24(FP), R14
	MOVQ lda+48(FP), R8
	MOVQ c_base+104(FP), R11
	MOVQ ldc+128(FP), R13
	SHLQ $2, R8
	SHLQ $2, R13
	LEAQ (R8)(R8*2), R9

	CMPQ mr+0(FP), $8
	JEQ  panel8
	CMPQ mr+0(FP), $4
	JLT  panel1

	// Four rows.
	MOVQ n+8(FP), R15

col4:
	ZCONVBLOCK
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	TESTQ  CX, CX
	JZ     store4

k4:
	MOVQ      (R12), AX
	VMOVUPS.Z (DI)(AX*4), K1, Z30
	VMOVUPS.Z 64(DI)(AX*4), K2, Z31
	TILEROW2((SI), Z0, Z1, Z30, Z31, Z28, Z29, z4r0)
	TILEROW2((SI)(R8*1), Z2, Z3, Z30, Z31, Z26, Z27, z4r1)
	TILEROW2((SI)(R8*2), Z4, Z5, Z30, Z31, Z24, Z25, z4r2)
	TILEROW2((SI)(R9*1), Z6, Z7, Z30, Z31, Z22, Z23, z4r3)
	ADDQ $4, SI
	ADDQ $8, R12
	DECQ CX
	JNZ  k4

store4:
	MOVQ BX, AX
	ZSTOREC(Z0, Z1)
	ZSTOREC(Z2, Z3)
	ZSTOREC(Z4, Z5)
	ZSTOREC(Z6, Z7)
	SUBQ $32, R15
	JG   col4

	LEAQ (R14)(R8*4), R14
	LEAQ (R11)(R13*4), R11
	SUBQ $4, mr+0(FP)

	// The rows left over, one at a time.
panel1:
	CMPQ mr+0(FP), $0
	JLE  done
	MOVQ n+8(FP), R15

col1:
	ZCONVBLOCK
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	TESTQ  CX, CX
	JZ     store1

k1:
	MOVQ      (R12), AX
	VMOVUPS.Z (DI)(AX*4), K1, Z30
	VMOVUPS.Z 64(DI)(AX*4), K2, Z31
	TILEROW2((SI), Z0, Z1, Z30, Z31, Z28, Z29, z1r0)
	ADDQ $4, SI
	ADDQ $8, R12
	DECQ CX
	JNZ  k1

store1:
	MOVQ BX, AX
	ZSTOREC(Z0, Z1)
	SUBQ $32, R15
	JG   col1

	ADDQ R8, R14
	ADDQ R13, R11
	DECQ mr+0(FP)
	JMP  panel1

	// Eight rows.
panel8:
	MOVQ n+8(FP), R15

col8:
	ZCONVBLOCK
	CMPQ   R15, $16
	JLE    col8x1
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	TESTQ  CX, CX
	JZ     store8

k8:
	MOVQ      (R12), AX
	VMOVUPS.Z (DI)(AX*4), K1, Z30
	VMOVUPS.Z 64(DI)(AX*4), K2, Z31
	TILEROW2((SI), Z0, Z1, Z30, Z31, Z28, Z29, z8r0)
	TILEROW2((SI)(R8*1), Z2, Z3, Z30, Z31, Z26, Z27, z8r1)
	TILEROW2((SI)(R8*2), Z4, Z5, Z30, Z31, Z24, Z25, z8r2)
	TILEROW2((SI)(R9*1), Z6, Z7, Z30, Z31, Z22, Z23, z8r3)
	TILEROW2((R10), Z8, Z9, Z30, Z31, Z20, Z21, z8r4)
	TILEROW2((R10)(R8*1), Z10, Z11, Z30, Z31, Z18, Z19, z8r5)
	TILEROW2((R10)(R8*2), Z12, Z13, Z30, Z31, Z16, Z17, z8r6)
	TILEROW2((R10)(R9*1), Z14, Z15, Z30, Z31, Z28, Z29, z8r7)
	ADDQ $4, SI
	ADDQ $4, R10
	ADDQ $8, R12
	DECQ CX
	JNZ  k8

store8:
	MOVQ BX, AX
	ZSTOREC(Z0, Z1)
	ZSTOREC(Z2, Z3)
	ZSTOREC(Z4, Z5)
	ZSTOREC(Z6, Z7)
	ZSTOREC(Z8, Z9)
	ZSTOREC(Z10, Z11)
	ZSTOREC(Z12, Z13)
	ZSTOREC(Z14, Z15)
	JMP next8

	// 16 or fewer columns left: one vector per row.
col8x1:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	TESTQ  CX, CX
	JZ     store8x1

k8x1:
	MOVQ      (R12), AX
	VMOVUPS.Z (DI)(AX*4), K1, Z30
	TILEROW1((SI), Z0, Z30, Z28, y8r0)
	TILEROW1((SI)(R8*1), Z1, Z30, Z27, y8r1)
	TILEROW1((SI)(R8*2), Z2, Z30, Z26, y8r2)
	TILEROW1((SI)(R9*1), Z3, Z30, Z25, y8r3)
	TILEROW1((R10), Z4, Z30, Z24, y8r4)
	TILEROW1((R10)(R8*1), Z5, Z30, Z23, y8r5)
	TILEROW1((R10)(R8*2), Z6, Z30, Z22, y8r6)
	TILEROW1((R10)(R9*1), Z7, Z30, Z21, y8r7)
	ADDQ $4, SI
	ADDQ $4, R10
	ADDQ $8, R12
	DECQ CX
	JNZ  k8x1

store8x1:
	MOVQ BX, AX
	ZSTOREC1(Z0)
	ZSTOREC1(Z1)
	ZSTOREC1(Z2)
	ZSTOREC1(Z3)
	ZSTOREC1(Z4)
	ZSTOREC1(Z5)
	ZSTOREC1(Z6)
	ZSTOREC1(Z7)

next8:
	SUBQ $32, R15
	JG   col8

done:
	VZEROUPPER
	RET

// func convTileAVX2(mr, n, k int, a []float32, lda int, b []float32, off []int, c []float32, ldc int)
//
// gemmTileAVX2 changed as convTileAVX512 changes gemmTileAVX512.
TEXT ·convTileAVX2(SB), NOSPLIT, $0-136
	MOVQ a_base+24(FP), R14
	MOVQ lda+48(FP), R8
	MOVQ c_base+104(FP), R11
	MOVQ ldc+128(FP), R13
	SHLQ $2, R8
	SHLQ $2, R13
	LEAQ (R8)(R8*2), R9

panel4:
	CMPQ mr+0(FP), $4
	JLT  panel1
	MOVQ n+8(FP), R15

col4:
	YCONVBLOCK
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	TESTQ  CX, CX
	JZ     store4

k4:
	MOVQ       (R12), AX
	VMASKMOVPS (DI)(AX*4), Y10, Y8
	VMASKMOVPS 32(DI)(AX*4), Y11, Y9
	TILEROW2((SI), Y0, Y1, Y8, Y9, Y12, Y13, y4r0)
	TILEROW2((SI)(R8*1), Y2, Y3, Y8, Y9, Y14, Y15, y4r1)
	TILEROW2((SI)(R8*2), Y4, Y5, Y8, Y9, Y12, Y13, y4r2)
	TILEROW2((SI)(R9*1), Y6, Y7, Y8, Y9, Y14, Y15, y4r3)
	ADDQ $4, SI
	ADDQ $8, R12
	DECQ CX
	JNZ  k4

store4:
	MOVQ BX, AX
	YSTOREC(Y0, Y1)
	YSTOREC(Y2, Y3)
	YSTOREC(Y4, Y5)
	YSTOREC(Y6, Y7)
	SUBQ $16, R15
	JG   col4

	LEAQ (R14)(R8*4), R14
	LEAQ (R11)(R13*4), R11
	SUBQ $4, mr+0(FP)
	JMP  panel4

panel1:
	CMPQ mr+0(FP), $0
	JLE  done
	MOVQ n+8(FP), R15

col1:
	YCONVBLOCK
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	TESTQ  CX, CX
	JZ     store1

k1:
	MOVQ       (R12), AX
	VMASKMOVPS (DI)(AX*4), Y10, Y8
	VMASKMOVPS 32(DI)(AX*4), Y11, Y9
	TILEROW2((SI), Y0, Y1, Y8, Y9, Y12, Y13, y1r0)
	ADDQ $4, SI
	ADDQ $8, R12
	DECQ CX
	JNZ  k1

store1:
	MOVQ BX, AX
	YSTOREC(Y0, Y1)
	SUBQ $16, R15
	JG   col1

	ADDQ R8, R14
	ADDQ R13, R11
	DECQ mr+0(FP)
	JMP  panel1

done:
	VZEROUPPER
	RET

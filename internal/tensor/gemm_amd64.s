//go:build amd64

#include "textflag.h"

// The fp32 GEMM's two register-tile micro-kernels (gemm_tile.go) and the
// direct convolution's two tiles (conv_tile.go), AVX-512 and AVX2 bodies.
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

// ZHALOB fills lanes [0, cap) of b0..b3, one block's B vectors in
// convDotAVX512, from the four taps' halo images at R12..R15. SI is the
// byte offset, from each tap's base, that lane 0 would read were the
// block's lanes to run on along the current image row, and CX counts the
// elements left in that row; both move on to the next block. Each image
// row the block reaches is one masked load per tap, merged into the lanes
// it owns: K1 = lanes [BX, DX), from the laneMask table at DI. When a row
// runs out, SI skips the row's 2·pad halo columns (pitch−ow floats, in
// bytes, kept in the argument slot pitch) so lane 0's offset follows the
// next row. capmask is the address of laneMask's entry for cap, and bytes
// is 4·cap. This and YHALOB name convDot's arguments, so they are defined
// ahead of every TEXT block (see ZCONVBLOCK).
#define ZHALOB(cap, bytes, capmask, b0, b1, b2, b3, piece, last, done) \
	XORQ    BX, BX;              \
piece:                           \
	LEAQ    (BX)(CX*1), DX;      \
	CMPQ    DX, $cap;            \
	JGE     last;                \
	KMOVW   (DI)(DX*2), K1;      \
	KMOVW   (DI)(BX*2), K2;      \
	KANDNW  K1, K2, K1;          \
	VMOVUPS (R12)(SI*1), K1, b0; \
	VMOVUPS (R13)(SI*1), K1, b1; \
	VMOVUPS (R14)(SI*1), K1, b2; \
	VMOVUPS (R15)(SI*1), K1, b3; \
	MOVQ    DX, BX;              \
	ADDQ    pitch+112(FP), SI;            \
	MOVQ    ow+104(FP), CX;              \
	JMP     piece;               \
last:                            \
	KMOVW   capmask, K1;         \
	KMOVW   (DI)(BX*2), K2;      \
	KANDNW  K1, K2, K1;          \
	VMOVUPS (R12)(SI*1), K1, b0; \
	VMOVUPS (R13)(SI*1), K1, b1; \
	VMOVUPS (R14)(SI*1), K1, b2; \
	VMOVUPS (R15)(SI*1), K1, b3; \
	ADDQ    $bytes, SI;          \
	ADDQ    BX, CX;              \
	SUBQ    $cap, CX;            \
	JNZ     done;                \
	MOVQ    ow+104(FP), CX;              \
	ADDQ    pitch+112(FP), SI;            \
done:

// YPIECE copies lanes [BX, DX) of one block's B vectors for the two taps
// at R12/R13 into the frame buffer at R15 (16 floats a tap): Y10/Y11 hold
// the mask of lanes below DX, Y8/Y9 that of lanes below BX, and become it.
// VMASKMOVPS loads a lane it does not own as +0 and stores only the lanes
// it owns.
#define YPIECE \
	VANDNPS    Y10, Y8, Y12;         \
	VANDNPS    Y11, Y9, Y13;         \
	VMASKMOVPS (R12)(SI*1), Y12, Y14; \
	VMASKMOVPS Y14, Y12, (R15);       \
	VMASKMOVPS 32(R12)(SI*1), Y13, Y14; \
	VMASKMOVPS Y14, Y13, 32(R15);     \
	VMASKMOVPS (R13)(SI*1), Y12, Y14; \
	VMASKMOVPS Y14, Y12, 64(R15);     \
	VMASKMOVPS 32(R13)(SI*1), Y13, Y14; \
	VMASKMOVPS Y14, Y13, 96(R15);     \
	VMOVAPS    Y10, Y8;              \
	VMOVAPS    Y11, Y9

// YHALOB is ZHALOB for convDotAVX2: the block's lanes [0, cap) of the taps
// at R12/R13 are assembled in the frame buffer at R15, one YPIECE per image
// row, with lane masks from the haloMask table at DI (the sixteen floats
// at byte offset 64−4e are the mask of lanes below e). capmask is the
// table offset for cap.
#define YHALOB(cap, bytes, capmask, piece, last, done) \
	XORQ    BX, BX;            \
	VXORPS  Y8, Y8, Y8;        \
	VXORPS  Y9, Y9, Y9;        \
piece:                         \
	LEAQ    (BX)(CX*1), DX;    \
	CMPQ    DX, $cap;          \
	JGE     last;              \
	NEGQ    DX;                \
	VMOVUPS 64(DI)(DX*4), Y10; \
	VMOVUPS 96(DI)(DX*4), Y11; \
	NEGQ    DX;                \
	YPIECE;                    \
	MOVQ    DX, BX;            \
	ADDQ    pitch+112(FP), SI;          \
	MOVQ    ow+104(FP), CX;            \
	JMP     piece;             \
last:                          \
	VMOVUPS capmask(DI), Y10;  \
	VMOVUPS capmask+32(DI), Y11; \
	YPIECE;                    \
	ADDQ    $bytes, SI;        \
	ADDQ    BX, CX;            \
	SUBQ    $cap, CX;          \
	JNZ     done;              \
	MOVQ    ow+104(FP), CX;            \
	ADDQ    pitch+112(FP), SI;          \
done:

// ZADJBLOCK is ZCOLBLOCK for convAdjAVX512 over its span of columns: it
// also loads the block's window lanes from the keep mask — one word per
// 32-column block — into K3/K4, ANDed with the live lanes K1/K2, for
// ZADDC. This and the following macros name the
// adjoint's arguments, so they are defined ahead of every TEXT block (see
// ZCONVBLOCK).
#define ZADJBLOCK \
	MOVQ    span+88(FP), AX;        \
	SUBQ    R15, AX;                \
	MOVQ    b_base+56(FP), DI;      \
	LEAQ    (DI)(AX*4), DI;         \
	LEAQ    (R11)(AX*4), BX;        \
	SHRQ    $3, AX;                 \
	ADDQ    keep_base+128(FP), AX;  \
	KMOVW   (AX), K3;               \
	KMOVW   2(AX), K4;              \
	MOVQ    $32, CX;                \
	CMPQ    R15, CX;                \
	CMOVQLT R15, CX;                \
	MOVL    $1, AX;                 \
	SHLQ    CX, AX;                 \
	DECQ    AX;                     \
	KMOVW   AX, K1;                 \
	SHRQ    $16, AX;                \
	KMOVW   AX, K2;                 \
	KANDW   K1, K3, K3;             \
	KANDW   K2, K4, K4;             \
	MOVQ    R14, SI;                \
	LEAQ    (R14)(R8*4), R10;       \
	MOVQ    k+8(FP), CX

// ZADDC / ZADDC1 add a two- or one-vector tile row into C at AX under the
// window masks, C first (as the scalar c += acc), and step AX to the next
// row.
#define ZADDC(acc0, acc1) \
	VMOVUPS.Z (AX), K3, Z30;   \
	VMOVUPS.Z 64(AX), K4, Z31; \
	VADDPS    acc0, Z30, Z30;  \
	VADDPS    acc1, Z31, Z31;  \
	VMOVUPS   Z30, K3, (AX);   \
	VMOVUPS   Z31, K4, 64(AX); \
	ADDQ      R13, AX

#define ZADDC1(acc0) \
	VMOVUPS.Z (AX), K3, Z30;  \
	VADDPS    acc0, Z30, Z30; \
	VMOVUPS   Z30, K3, (AX);  \
	ADDQ      R13, AX

// ZZERO8 clears eight accumulators.
#define ZZERO8(r0, r1, r2, r3, r4, r5, r6, r7) \
	VPXORD r0, r0, r0; \
	VPXORD r1, r1, r1; \
	VPXORD r2, r2, r2; \
	VPXORD r3, r3, r3; \
	VPXORD r4, r4, r4; \
	VPXORD r5, r5, r5; \
	VPXORD r6, r6, r6; \
	VPXORD r7, r7, r7

// YADJMASK turns the keep bits of the 16-column block the panel is at into
// the store masks Y12/Y13 (lanes 0-7, 8-15), ANDed with the live lanes
// Y10/Y11: the block's 16 bits are broadcast to every lane, and a lane is
// kept where its own bit (adjBits) is set.
#define YADJMASK \
	MOVQ      span+88(FP), AX;       \
	SUBQ      R15, AX;               \
	SHRQ      $3, AX;                \
	ADDQ      keep_base+128(FP), AX; \
	MOVWLZX   (AX), AX;              \
	VMOVD     AX, X12;               \
	VPBROADCASTD X12, Y12;           \
	VMOVDQA   Y12, Y13;              \
	LEAQ      adjBits<>(SB), AX;     \
	VPAND     (AX), Y12, Y12;        \
	VPCMPEQD  (AX), Y12, Y12;        \
	VPAND     32(AX), Y13, Y13;      \
	VPCMPEQD  32(AX), Y13, Y13;      \
	VPAND     Y10, Y12, Y12;         \
	VPAND     Y11, Y13, Y13

// YADDC adds a two-vector tile row into C at AX under the store masks, C
// first, and steps AX to the next row.
#define YADDC(acc0, acc1) \
	VMASKMOVPS (AX), Y12, Y14;    \
	VADDPS     acc0, Y14, Y14;    \
	VMASKMOVPS Y14, Y12, (AX);    \
	VMASKMOVPS 32(AX), Y13, Y15;  \
	VADDPS     acc1, Y15, Y15;    \
	VMASKMOVPS Y15, Y13, 32(AX);  \
	ADDQ       R13, AX

// YADJBLOCK is YCOLBLOCK for convAdjAVX2's span.
#define YADJBLOCK \
	MOVQ    span+88(FP), AX;      \
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
	MOVQ    k+8(FP), CX

// TILEROW4 is TILEROW2 for a four-vector tile row.
#define TILEROW4(aaddr, acc0, acc1, acc2, acc3, b0, b1, b2, b3, t0, t1, t2, t3, skip) \
	MOVL         aaddr, AX;      \
	ADDL         AX, AX;         \
	JZ           skip;           \
	VBROADCASTSS aaddr, t0;      \
	VMULPS       t0, b0, t1;     \
	VMULPS       t0, b1, t2;     \
	VMULPS       t0, b2, t3;     \
	VMULPS       t0, b3, t0;     \
	VADDPS       acc0, t1, acc0; \
	VADDPS       acc1, t2, acc1; \
	VADDPS       acc2, t3, acc2; \
	VADDPS       acc3, t0, acc3; \
skip:

// ZADJBLOCK64 is ZADJBLOCK for a block of up to 64 columns: the live
// lanes go to K1, K2, K5, K6; the window mask is applied at the store
// (ZADJKEEP64).
#define ZADJBLOCK64 \
	MOVQ    span+88(FP), AX;   \
	SUBQ    R15, AX;           \
	MOVQ    b_base+56(FP), DI; \
	LEAQ    (DI)(AX*4), DI;    \
	LEAQ    (R11)(AX*4), BX;   \
	MOVQ    $64, CX;           \
	CMPQ    R15, CX;           \
	CMOVQLT R15, CX;           \
	MOVL    $1, AX;            \
	SHLQ    CX, AX;            \
	DECQ    AX;                \
	MOVQ    $-1, R10;          \
	CMPQ    CX, $64;           \
	CMOVQEQ R10, AX;           \
	KMOVW   AX, K1;            \
	SHRQ    $16, AX;           \
	KMOVW   AX, K2;            \
	SHRQ    $16, AX;           \
	KMOVW   AX, K5;            \
	SHRQ    $16, AX;           \
	KMOVW   AX, K6;            \
	MOVQ    R14, SI;           \
	MOVQ    k+8(FP), CX

// ZADJKEEP64 ANDs the four live masks of a 64-column block with its two
// keep words.
#define ZADJKEEP64 \
	MOVQ  span+88(FP), AX;       \
	SUBQ  R15, AX;               \
	SHRQ  $3, AX;                \
	ADDQ  keep_base+128(FP), AX; \
	KMOVW (AX), K3;              \
	KANDW K1, K3, K1;            \
	KMOVW 2(AX), K3;             \
	KANDW K2, K3, K2;            \
	KMOVW 4(AX), K3;             \
	KANDW K5, K3, K5;            \
	KMOVW 6(AX), K3;             \
	KANDW K6, K3, K6

// YADJBLOCK32 is YADJBLOCK for a block of up to 32 columns: the live
// lanes of its four vectors go to Y8-Y11, from adjLive; the window mask
// is applied at the store (YADJKEEP32).
#define YADJBLOCK32 \
	MOVQ    span+88(FP), AX;      \
	SUBQ    R15, AX;              \
	MOVQ    b_base+56(FP), DI;    \
	LEAQ    (DI)(AX*4), DI;       \
	LEAQ    (R11)(AX*4), BX;      \
	MOVQ    $32, CX;              \
	CMPQ    R15, CX;              \
	CMOVQLT R15, CX;              \
	NEGQ    CX;                   \
	LEAQ    adjLive<>(SB), AX;    \
	VMOVDQU 128(AX)(CX*4), Y8;    \
	VMOVDQU 160(AX)(CX*4), Y9;    \
	VMOVDQU 192(AX)(CX*4), Y10;   \
	VMOVDQU 224(AX)(CX*4), Y11;   \
	MOVQ    R14, SI;              \
	MOVQ    k+8(FP), CX

// YADJKEEP32 ANDs the four live masks of a 32-column block with its keep
// word, spread a bit per lane as YADJMASK does.
#define YADJKEEP32 \
	MOVQ         span+88(FP), AX;       \
	SUBQ         R15, AX;               \
	SHRQ         $3, AX;                \
	ADDQ         keep_base+128(FP), AX; \
	VPBROADCASTD (AX), Y12;             \
	LEAQ         adjBits<>(SB), AX;     \
	VPAND        (AX), Y12, Y13;        \
	VPCMPEQD     (AX), Y13, Y13;        \
	VPAND        Y13, Y8, Y8;           \
	VPAND        32(AX), Y12, Y13;      \
	VPCMPEQD     32(AX), Y13, Y13;      \
	VPAND        Y13, Y9, Y9;           \
	VPAND        64(AX), Y12, Y13;      \
	VPCMPEQD     64(AX), Y13, Y13;      \
	VPAND        Y13, Y10, Y10;         \
	VPAND        96(AX), Y12, Y13;      \
	VPCMPEQD     96(AX), Y13, Y13;      \
	VPAND        Y13, Y11, Y11

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

// func convPackAVX512(dst, b []float32, off []int, idx []int32, w int)
//
// Two gathers per tap: lanes 0-15 and 16-31 of B row p, from
// b + 4·off[p] at the column offsets in Z1/Z2, under the masks of the w
// live lanes (K1/K2; a dead lane stores +0). Each destination is cleared
// before its gather, which merges into it and would otherwise wait on the
// tap before.
TEXT ·convPackAVX512(SB), NOSPLIT, $0-104
	MOVQ        dst_base+0(FP), DI
	MOVQ        b_base+24(FP), SI
	MOVQ        off_base+48(FP), R8
	MOVQ        idx_base+72(FP), R9
	MOVQ        w+96(FP), CX
	MOVL        $1, AX
	SHLQ        CX, AX
	DECQ        AX
	KMOVW       AX, K1
	SHRQ        $16, AX
	KMOVW       AX, K2
	VMOVDQU32.Z (R9), K1, Z1
	VMOVDQU32.Z 64(R9), K2, Z2
	MOVQ        off_len+56(FP), CX
	TESTQ       CX, CX
	JZ          zdone

ztap:
	MOVQ       (R8), AX
	LEAQ       (SI)(AX*4), AX
	KMOVW      K1, K3
	VPXORD     Z3, Z3, Z3
	VGATHERDPS (AX)(Z1*4), K3, Z3
	KMOVW      K2, K4
	VPXORD     Z4, Z4, Z4
	VGATHERDPS (AX)(Z2*4), K4, Z4
	VMOVUPS    Z3, (DI)
	VMOVUPS    Z4, 64(DI)
	ADDQ       $128, DI
	ADDQ       $8, R8
	DECQ       CX
	JNZ        ztap

zdone:
	VZEROUPPER
	RET

// YPACKMASK sets mask to tileMask's mask for the live lanes of the
// eight-lane segment that starts at lane lo, of w = DX live lanes, and
// loads that segment's column offsets from R9 into offs under it.
#define YPACKMASK(lo, mask, offs) \
	MOVQ       DX, AX;             \
	SUBQ       $lo, AX;            \
	XORQ       BX, BX;             \
	CMPQ       AX, BX;             \
	CMOVQLT    BX, AX;             \
	MOVQ       $8, BX;             \
	CMPQ       AX, BX;             \
	CMOVQGT    BX, AX;             \
	NEGQ       AX;                 \
	VMOVDQU    32(R10)(AX*4), mask; \
	VPMASKMOVD lo*4(R9), mask, offs

// YPACKSEG gathers one eight-lane segment of a tap's B row from AX under
// a copy of its mask and stores it at byte offset at of DI.
#define YPACKSEG(mask, offs, at) \
	VMOVDQU    mask, Y0;            \
	VXORPS     Y1, Y1, Y1;          \
	VGATHERDPS Y0, (AX)(offs*4), Y1; \
	VMOVUPS    Y1, at(DI)

// func convPackAVX2(dst, b []float32, off []int, idx []int32, w int)
//
// convPackAVX512 in four eight-lane gathers per tap, the segment masks in
// Y8-Y11 and the column offsets in Y12-Y15.
TEXT ·convPackAVX2(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ b_base+24(FP), SI
	MOVQ off_base+48(FP), R8
	MOVQ idx_base+72(FP), R9
	MOVQ w+96(FP), DX
	LEAQ tileMask<>(SB), R10
	YPACKMASK(0, Y8, Y12)
	YPACKMASK(8, Y9, Y13)
	YPACKMASK(16, Y10, Y14)
	YPACKMASK(24, Y11, Y15)
	MOVQ  off_len+56(FP), CX
	TESTQ CX, CX
	JZ    ydone

ytap:
	MOVQ (R8), AX
	LEAQ (SI)(AX*4), AX
	YPACKSEG(Y8, Y12, 0)
	YPACKSEG(Y9, Y13, 32)
	YPACKSEG(Y10, Y14, 64)
	YPACKSEG(Y11, Y15, 96)
	ADDQ $128, DI
	ADDQ $8, R8
	DECQ CX
	JNZ  ytap

ydone:
	VZEROUPPER
	RET

// laneMask holds (1<<i)−1 for i = 0..16: the KMOVW mask of the lanes below i.
DATA laneMask<>+0(SB)/2, $0x0000
DATA laneMask<>+2(SB)/2, $0x0001
DATA laneMask<>+4(SB)/2, $0x0003
DATA laneMask<>+6(SB)/2, $0x0007
DATA laneMask<>+8(SB)/2, $0x000f
DATA laneMask<>+10(SB)/2, $0x001f
DATA laneMask<>+12(SB)/2, $0x003f
DATA laneMask<>+14(SB)/2, $0x007f
DATA laneMask<>+16(SB)/2, $0x00ff
DATA laneMask<>+18(SB)/2, $0x01ff
DATA laneMask<>+20(SB)/2, $0x03ff
DATA laneMask<>+22(SB)/2, $0x07ff
DATA laneMask<>+24(SB)/2, $0x0fff
DATA laneMask<>+26(SB)/2, $0x1fff
DATA laneMask<>+28(SB)/2, $0x3fff
DATA laneMask<>+30(SB)/2, $0x7fff
DATA laneMask<>+32(SB)/2, $0xffff
GLOBL laneMask<>(SB), RODATA|NOPTR, $34

// func convDotAVX512(mr, n, k int, a []float32, lda int, b []float32, off []int, ow, pitch int, c []float32, ldc int)
//
// dotTileAVX512 with B read out of the halo image: four rows of A against
// four taps, sixteen ZMM accumulators, the same fold, 8-block, tree and
// scalar tail. A 16-float block of compact indices that stays inside one
// image row loads each tap's vector with one plain load; any other block
// is put together by ZHALOB, one masked load per row it reaches. The
// 8-block does the same at half width and copies its half into both.
//
// R8-R11 A rows, R12-R15 tap bases of the current group, AX byte offset
// into k, SI/CX the image position (see ZHALOB), DI the laneMask table,
// kend the end of the whole 16-float blocks. The group's taps left, C
// element and offset-table entry, and the row skip, live in the argument
// slots n, c_base, off_base and pitch.
TEXT ·convDotAVX512(SB), NOSPLIT, $8-152
	MOVQ a_base+24(FP), R8
	MOVQ lda+48(FP), SI
	SHLQ $2, SI
	MOVQ mr+0(FP), CX
	ROWS4(CX, SI, R8, R9, R10, R11, arows)
	MOVQ k+16(FP), AX
	ANDQ $~15, AX
	SHLQ $2, AX
	MOVQ AX, kend-8(SP)
	MOVQ pitch+112(FP), AX
	SUBQ ow+104(FP), AX
	SHLQ $2, AX
	MOVQ AX, pitch+112(FP)
	SHLQ $2, ldc+144(FP)
	LEAQ laneMask<>(SB), DI

group:
	MOVQ off_base+80(FP), DX
	MOVQ n+8(FP), BX
	MOVQ b_base+56(FP), SI
	MOVQ (DX), R12
	LEAQ (SI)(R12*4), R12
	MOVQ R12, R13
	MOVQ R12, R14
	MOVQ R12, R15
	CMPQ BX, $2
	JLT  taps
	MOVQ 8(DX), R13
	LEAQ (SI)(R13*4), R13
	MOVQ R13, R14
	MOVQ R13, R15
	CMPQ BX, $3
	JLT  taps
	MOVQ 16(DX), R14
	LEAQ (SI)(R14*4), R14
	MOVQ R14, R15
	CMPQ BX, $4
	JLT  taps
	MOVQ 24(DX), R15
	LEAQ (SI)(R15*4), R15

taps:
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
	XORQ   SI, SI
	MOVQ   ow+104(FP), CX
	CMPQ   AX, kend-8(SP)
	JGE    fold

blk:
	VMOVUPS (R8)(AX*1), Z16
	VMOVUPS (R9)(AX*1), Z17
	VMOVUPS (R10)(AX*1), Z18
	VMOVUPS (R11)(AX*1), Z19
	CMPQ    CX, $16
	JLT     split
	VMOVUPS (R12)(SI*1), Z20
	VMOVUPS (R13)(SI*1), Z21
	VMOVUPS (R14)(SI*1), Z22
	VMOVUPS (R15)(SI*1), Z23
	ADDQ    $64, SI
	SUBQ    $16, CX
	JNZ     dots
	MOVQ    ow+104(FP), CX
	ADDQ    pitch+112(FP), SI
	JMP     dots

split:
	ZHALOB(16, 64, 32(DI), Z20, Z21, Z22, Z23, piece16, last16, done16)

dots:
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
	CMPQ AX, kend-8(SP)
	JLT  blk

fold:
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

	VMOVUPS      (R8)(AX*1), Y0
	VINSERTF64X4 $1, (R9)(AX*1), Z0, Z0
	VMOVUPS      (R10)(AX*1), Y1
	VINSERTF64X4 $1, (R11)(AX*1), Z1, Z1
	CMPQ         CX, $8
	JLT          split8
	VBROADCASTF64X4 (R12)(SI*1), Z2
	VBROADCASTF64X4 (R13)(SI*1), Z3
	VBROADCASTF64X4 (R14)(SI*1), Z4
	VBROADCASTF64X4 (R15)(SI*1), Z5
	ADDQ            $32, SI
	SUBQ            $8, CX
	JNZ             dots8
	MOVQ            ow+104(FP), CX
	ADDQ            pitch+112(FP), SI
	JMP             dots8

split8:
	ZHALOB(8, 32, 16(DI), Z2, Z3, Z4, Z5, piece8, last8, done8)
	VSHUFF64X2 $0x44, Z2, Z2, Z2
	VSHUFF64X2 $0x44, Z3, Z3, Z3
	VSHUFF64X2 $0x44, Z4, Z4, Z4
	VSHUFF64X2 $0x44, Z5, Z5, Z5

dots8:
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
	VSHUFPS    $0x44, Z1, Z0, Z24
	VSHUFPS    $0xEE, Z1, Z0, Z25
	VADDPS     Z25, Z24, Z4
	VSHUFPS    $0x44, Z3, Z2, Z24
	VSHUFPS    $0xEE, Z3, Z2, Z25
	VADDPS     Z25, Z24, Z5
	VSHUFPS    $0x88, Z5, Z4, Z24
	VSHUFPS    $0xDD, Z5, Z4, Z25
	VADDPS     Z25, Z24, Z0

	MOVQ k+16(FP), DX
	ANDQ $7, DX
	JZ   store

tail:
	VBROADCASTSS (R8)(AX*1), X1
	VBROADCASTSS (R9)(AX*1), X2
	VBROADCASTSS (R10)(AX*1), X3
	VBROADCASTSS (R11)(AX*1), X4
	VINSERTF32X4 $1, X2, Z1, Z1
	VINSERTF32X4 $2, X3, Z1, Z1
	VINSERTF32X4 $3, X4, Z1, Z1
	VMOVSS       (R12)(SI*1), X5
	VINSERTPS    $0x10, (R13)(SI*1), X5, X5
	VINSERTPS    $0x20, (R14)(SI*1), X5, X5
	VINSERTPS    $0x30, (R15)(SI*1), X5, X5
	VSHUFF32X4   $0, Z5, Z5, Z5
	VMULPS       Z5, Z1, Z1
	VADDPS       Z1, Z0, Z0
	ADDQ         $4, AX
	ADDQ         $4, SI
	DECQ         CX
	JNZ          tnext
	MOVQ         ow+104(FP), CX
	ADDQ         pitch+112(FP), SI

tnext:
	DECQ DX
	JNZ  tail

store:
	// c += dot, the live rows and columns only.
	MOVQ    n+8(FP), DX
	MOVQ    $4, CX
	CMPQ    DX, CX
	CMOVQLT DX, CX
	MOVL    $1, SI
	SHLQ    CX, SI
	DECQ    SI
	KMOVW   SI, K1
	MOVQ    ldc+144(FP), SI
	MOVQ    mr+0(FP), CX
	MOVQ    c_base+120(FP), AX
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
	ADDQ $32, off_base+80(FP)
	ADDQ $16, c_base+120(FP)
	SUBQ $4, n+8(FP)
	JG   group
	VZEROUPPER
	RET

// haloMask holds sixteen live lanes then sixteen dead ones: the sixteen
// floats at byte offset 64−4e are the VMASKMOVPS masks of the lanes below
// e, two YMM at a time.
DATA haloMask<>+0(SB)/8, $0xffffffffffffffff
DATA haloMask<>+8(SB)/8, $0xffffffffffffffff
DATA haloMask<>+16(SB)/8, $0xffffffffffffffff
DATA haloMask<>+24(SB)/8, $0xffffffffffffffff
DATA haloMask<>+32(SB)/8, $0xffffffffffffffff
DATA haloMask<>+40(SB)/8, $0xffffffffffffffff
DATA haloMask<>+48(SB)/8, $0xffffffffffffffff
DATA haloMask<>+56(SB)/8, $0xffffffffffffffff
DATA haloMask<>+64(SB)/8, $0
DATA haloMask<>+72(SB)/8, $0
DATA haloMask<>+80(SB)/8, $0
DATA haloMask<>+88(SB)/8, $0
DATA haloMask<>+96(SB)/8, $0
DATA haloMask<>+104(SB)/8, $0
DATA haloMask<>+112(SB)/8, $0
DATA haloMask<>+120(SB)/8, $0
GLOBL haloMask<>(SB), RODATA|NOPTR, $128

// func convDotAVX2(mr, n, k int, a []float32, lda int, b []float32, off []int, ow, pitch int, c []float32, ldc int)
//
// dotTileAVX2 with B read out of the halo image: two rows of A against two
// taps, the same merge, 8-block, tree and tail. BX/DX point at the block's
// B vectors for the two taps: the image itself when the block stays inside
// one image row, else the frame buffer YHALOB assembled them in.
//
// R8/R9 A rows, R12/R13 tap bases, AX byte offset into k, SI/CX the image
// position (see ZHALOB), DI the haloMask table, R10 end of the whole
// 16-float blocks, R11 = ldc in bytes, R14 rows left, R15 the buffer; the
// tap pair's offset-table entry, C element and taps left live in the
// frame, the row skip in the argument slot pitch.
TEXT ·convDotAVX2(SB), NOSPLIT, $152-152
	MOVQ a_base+24(FP), R8
	MOVQ mr+0(FP), R14
	MOVQ k+16(FP), R10
	ANDQ $~15, R10
	SHLQ $2, R10
	MOVQ ldc+144(FP), R11
	SHLQ $2, R11
	SHLQ $2, lda+48(FP)
	MOVQ pitch+112(FP), AX
	SUBQ ow+104(FP), AX
	SHLQ $2, AX
	MOVQ AX, pitch+112(FP)
	LEAQ haloMask<>(SB), DI
	LEAQ buf-128(SP), R15

rowpair:
	MOVQ R8, R9
	CMPQ R14, $2
	JLT  arows
	ADDQ lda+48(FP), R9

arows:
	MOVQ off_base+80(FP), AX
	MOVQ AX, offp-136(SP)
	MOVQ c_base+120(FP), AX
	MOVQ AX, cptr-144(SP)
	MOVQ n+8(FP), AX
	MOVQ AX, left-152(SP)

group:
	MOVQ offp-136(SP), DX
	MOVQ b_base+56(FP), SI
	MOVQ (DX), R12
	LEAQ (SI)(R12*4), R12
	MOVQ R12, R13
	CMPQ left-152(SP), $2
	JLT  brows
	MOVQ 8(DX), R13
	LEAQ (SI)(R13*4), R13

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
	XORQ   SI, SI
	MOVQ   ow+104(FP), CX
	CMPQ   AX, R10
	JGE    merge

blk:
	CMPQ CX, $16
	JLT  ysplit
	LEAQ (R12)(SI*1), BX
	LEAQ (R13)(SI*1), DX
	ADDQ $64, SI
	SUBQ $16, CX
	JNZ  ydots
	MOVQ ow+104(FP), CX
	ADDQ pitch+112(FP), SI
	JMP  ydots

ysplit:
	YHALOB(16, 64, 0, ypiece16, ylast16, ydone16)
	MOVQ R15, BX
	LEAQ 64(R15), DX

ydots:
	VMOVUPS (R8)(AX*1), Y8
	VMOVUPS 32(R8)(AX*1), Y9
	VMOVUPS (R9)(AX*1), Y10
	VMOVUPS 32(R9)(AX*1), Y11
	YDOT(Y8, Y9, (BX), 32(BX), Y0, Y1)
	YDOT(Y8, Y9, (DX), 32(DX), Y2, Y3)
	YDOT(Y10, Y11, (BX), 32(BX), Y4, Y5)
	YDOT(Y10, Y11, (DX), 32(DX), Y6, Y7)
	ADDQ $64, AX
	CMPQ AX, R10
	JLT  blk

merge:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y5, Y4, Y4
	VADDPS Y7, Y6, Y6
	TESTQ  $8, k+16(FP)
	JZ     tree

	CMPQ CX, $8
	JLT  ysplit8
	LEAQ (R12)(SI*1), BX
	LEAQ (R13)(SI*1), DX
	ADDQ $32, SI
	SUBQ $8, CX
	JNZ  ydots8
	MOVQ ow+104(FP), CX
	ADDQ pitch+112(FP), SI
	JMP  ydots8

ysplit8:
	YHALOB(8, 32, 32, ypiece8, ylast8, ydone8)
	MOVQ R15, BX
	LEAQ 64(R15), DX

ydots8:
	VMOVUPS (R8)(AX*1), Y8
	VMOVUPS (R9)(AX*1), Y10
	VMULPS  (BX), Y8, Y12
	VMULPS  (DX), Y8, Y13
	VMULPS  (BX), Y10, Y14
	VMULPS  (DX), Y10, Y15
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

	MOVQ k+16(FP), BX
	ANDQ $7, BX
	JZ   store

tail:
	// [a0, a0, a1, a1] · [b0, b1, b0, b1]
	VBROADCASTSS (R8)(AX*1), X1
	VBROADCASTSS (R9)(AX*1), X2
	VBLENDPS     $0xC, X2, X1, X1
	VMOVSS       (R12)(SI*1), X3
	VINSERTPS    $0x10, (R13)(SI*1), X3, X3
	VMOVLHPS     X3, X3, X3
	VMULPS       X3, X1, X1
	VADDPS       X1, X0, X0
	ADDQ         $4, AX
	ADDQ         $4, SI
	DECQ         CX
	JNZ          tnext
	MOVQ         ow+104(FP), CX
	ADDQ         pitch+112(FP), SI

tnext:
	DECQ BX
	JNZ  tail

store:
	// c += dot, the live rows and columns only.
	MOVQ     cptr-144(SP), BX
	VMOVHLPS X0, X0, X2
	CMPQ     left-152(SP), $2
	JLT      onecol
	VMOVSD   (BX), X1
	VADDPS   X1, X0, X1
	VMOVLPS  X1, (BX)
	CMPQ     R14, $2
	JLT      next
	VMOVSD   (BX)(R11*1), X1
	VADDPS   X1, X2, X1
	VMOVLPS  X1, (BX)(R11*1)
	JMP      next

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
	ADDQ $16, offp-136(SP)
	ADDQ $8, cptr-144(SP)
	SUBQ $2, left-152(SP)
	JG   group

	// Next two rows of the panel.
	MOVQ lda+48(FP), AX
	LEAQ (R8)(AX*2), R8
	LEAQ (R11)(R11*1), AX
	ADDQ AX, c_base+120(FP)
	SUBQ $2, R14
	JG   rowpair
	VZEROUPPER
	RET

// func convAdjAVX512(mr, k int, a []float32, ars, aps int, b []float32, ldb, span int, c []float32, ldc int, keep []uint32, t []float32)
//
// gemmTileAVX512 over the span's columns with two changes: the
// accumulators start at +0 instead of loading C, and each tile row is
// added into C under the block's window mask instead of stored. The lanes
// between the window's rows and samples are computed and never stored. t
// is not used.
TEXT ·convAdjAVX512(SB), NOSPLIT, $0-176
	MOVQ a_base+16(FP), R14
	MOVQ ars+40(FP), R8
	MOVQ aps+48(FP), DX
	MOVQ ldb+80(FP), R12
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
	MOVQ span+88(FP), R15

col4:
	ZADJBLOCK
	ZZERO8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
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
	ZADDC(Z0, Z1)
	ZADDC(Z2, Z3)
	ZADDC(Z4, Z5)
	ZADDC(Z6, Z7)
	SUBQ $32, R15
	JG   col4

	LEAQ (R14)(R8*4), R14
	LEAQ (R11)(R13*4), R11
	SUBQ $4, mr+0(FP)

	// The rows left over, one at a time, 64 columns a block: four
	// independent chains per row instead of two.
panel1:
	CMPQ mr+0(FP), $0
	JLE  done
	MOVQ span+88(FP), R15

col1:
	ZADJBLOCK64
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	TESTQ  CX, CX
	JZ     store1

k1:
	VMOVUPS.Z (DI), K1, Z28
	VMOVUPS.Z 64(DI), K2, Z29
	VMOVUPS.Z 128(DI), K5, Z30
	VMOVUPS.Z 192(DI), K6, Z31
	TILEROW4((SI), Z0, Z1, Z2, Z3, Z28, Z29, Z30, Z31, Z24, Z25, Z26, Z27, z1r0)
	ADDQ DX, SI
	ADDQ R12, DI
	DECQ CX
	JNZ  k1

store1:
	ZADJKEEP64
	MOVQ      BX, AX
	VMOVUPS.Z (AX), K1, Z24
	VMOVUPS.Z 64(AX), K2, Z25
	VMOVUPS.Z 128(AX), K5, Z26
	VMOVUPS.Z 192(AX), K6, Z27
	VADDPS    Z0, Z24, Z24
	VADDPS    Z1, Z25, Z25
	VADDPS    Z2, Z26, Z26
	VADDPS    Z3, Z27, Z27
	VMOVUPS   Z24, K1, (AX)
	VMOVUPS   Z25, K2, 64(AX)
	VMOVUPS   Z26, K5, 128(AX)
	VMOVUPS   Z27, K6, 192(AX)
	SUBQ      $64, R15
	JG        col1

	ADDQ R8, R14
	ADDQ R13, R11
	DECQ mr+0(FP)
	JMP  panel1

	// Eight rows.
panel8:
	MOVQ span+88(FP), R15

col8:
	ZADJBLOCK
	CMPQ R15, $16
	JLE  col8x1
	ZZERO8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
	ZZERO8(Z8, Z9, Z10, Z11, Z12, Z13, Z14, Z15)
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
	ZADDC(Z0, Z1)
	ZADDC(Z2, Z3)
	ZADDC(Z4, Z5)
	ZADDC(Z6, Z7)
	ZADDC(Z8, Z9)
	ZADDC(Z10, Z11)
	ZADDC(Z12, Z13)
	ZADDC(Z14, Z15)
	JMP next8

	// 16 or fewer columns left: one vector per row.
col8x1:
	ZZERO8(Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7)
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
	ZADDC1(Z0)
	ZADDC1(Z1)
	ZADDC1(Z2)
	ZADDC1(Z3)
	ZADDC1(Z4)
	ZADDC1(Z5)
	ZADDC1(Z6)
	ZADDC1(Z7)

next8:
	SUBQ $32, R15
	JG   col8

done:
	VZEROUPPER
	RET

// adjBits holds 1<<i in lane i: the keep bit of each lane of a 16- or
// 32-column block.
DATA adjBits<>+0(SB)/4, $1
DATA adjBits<>+4(SB)/4, $2
DATA adjBits<>+8(SB)/4, $4
DATA adjBits<>+12(SB)/4, $8
DATA adjBits<>+16(SB)/4, $16
DATA adjBits<>+20(SB)/4, $32
DATA adjBits<>+24(SB)/4, $64
DATA adjBits<>+28(SB)/4, $128
DATA adjBits<>+32(SB)/4, $256
DATA adjBits<>+36(SB)/4, $512
DATA adjBits<>+40(SB)/4, $1024
DATA adjBits<>+44(SB)/4, $2048
DATA adjBits<>+48(SB)/4, $4096
DATA adjBits<>+52(SB)/4, $8192
DATA adjBits<>+56(SB)/4, $16384
DATA adjBits<>+60(SB)/4, $32768
DATA adjBits<>+64(SB)/4, $65536
DATA adjBits<>+68(SB)/4, $131072
DATA adjBits<>+72(SB)/4, $262144
DATA adjBits<>+76(SB)/4, $524288
DATA adjBits<>+80(SB)/4, $1048576
DATA adjBits<>+84(SB)/4, $2097152
DATA adjBits<>+88(SB)/4, $4194304
DATA adjBits<>+92(SB)/4, $8388608
DATA adjBits<>+96(SB)/4, $16777216
DATA adjBits<>+100(SB)/4, $33554432
DATA adjBits<>+104(SB)/4, $67108864
DATA adjBits<>+108(SB)/4, $134217728
DATA adjBits<>+112(SB)/4, $268435456
DATA adjBits<>+116(SB)/4, $536870912
DATA adjBits<>+120(SB)/4, $1073741824
DATA adjBits<>+124(SB)/4, $2147483648
GLOBL adjBits<>(SB), RODATA|NOPTR, $128

// adjLive holds 32 live lanes then 32 dead ones: the eight dwords at byte
// offset 128−4c+32v are the live lanes of vector v of a c-column block.
DATA adjLive<>+0(SB)/8, $0xffffffffffffffff
DATA adjLive<>+8(SB)/8, $0xffffffffffffffff
DATA adjLive<>+16(SB)/8, $0xffffffffffffffff
DATA adjLive<>+24(SB)/8, $0xffffffffffffffff
DATA adjLive<>+32(SB)/8, $0xffffffffffffffff
DATA adjLive<>+40(SB)/8, $0xffffffffffffffff
DATA adjLive<>+48(SB)/8, $0xffffffffffffffff
DATA adjLive<>+56(SB)/8, $0xffffffffffffffff
DATA adjLive<>+64(SB)/8, $0xffffffffffffffff
DATA adjLive<>+72(SB)/8, $0xffffffffffffffff
DATA adjLive<>+80(SB)/8, $0xffffffffffffffff
DATA adjLive<>+88(SB)/8, $0xffffffffffffffff
DATA adjLive<>+96(SB)/8, $0xffffffffffffffff
DATA adjLive<>+104(SB)/8, $0xffffffffffffffff
DATA adjLive<>+112(SB)/8, $0xffffffffffffffff
DATA adjLive<>+120(SB)/8, $0xffffffffffffffff
DATA adjLive<>+128(SB)/8, $0
DATA adjLive<>+136(SB)/8, $0
DATA adjLive<>+144(SB)/8, $0
DATA adjLive<>+152(SB)/8, $0
DATA adjLive<>+160(SB)/8, $0
DATA adjLive<>+168(SB)/8, $0
DATA adjLive<>+176(SB)/8, $0
DATA adjLive<>+184(SB)/8, $0
DATA adjLive<>+192(SB)/8, $0
DATA adjLive<>+200(SB)/8, $0
DATA adjLive<>+208(SB)/8, $0
DATA adjLive<>+216(SB)/8, $0
DATA adjLive<>+224(SB)/8, $0
DATA adjLive<>+232(SB)/8, $0
DATA adjLive<>+240(SB)/8, $0
DATA adjLive<>+248(SB)/8, $0
GLOBL adjLive<>(SB), RODATA|NOPTR, $256

// func convAdjAVX2(mr, k int, a []float32, ars, aps int, b []float32, ldb, span int, c []float32, ldc int, keep []uint32, t []float32)
//
// gemmTileAVX2 changed as convAdjAVX512 changes gemmTileAVX512: the
// accumulators start at +0, and each tile row is added into C under the
// block's live and window lanes (YADJMASK) instead of stored.
TEXT ·convAdjAVX2(SB), NOSPLIT, $0-176
	MOVQ a_base+16(FP), R14
	MOVQ ars+40(FP), R8
	MOVQ aps+48(FP), DX
	MOVQ ldb+80(FP), R12
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
	MOVQ span+88(FP), R15

col4:
	YADJBLOCK
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
	YADJMASK
	MOVQ BX, AX
	YADDC(Y0, Y1)
	YADDC(Y2, Y3)
	YADDC(Y4, Y5)
	YADDC(Y6, Y7)
	SUBQ $16, R15
	JG   col4

	LEAQ (R14)(R8*4), R14
	LEAQ (R11)(R13*4), R11
	SUBQ $4, mr+0(FP)
	JMP  panel4

	// The rows left over, one at a time, 32 columns a block: four
	// independent chains per row instead of two.
panel1:
	CMPQ mr+0(FP), $0
	JLE  done
	MOVQ span+88(FP), R15

col1:
	YADJBLOCK32
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ  CX, CX
	JZ     store1

k1:
	VMASKMOVPS (DI), Y8, Y4
	VMASKMOVPS 32(DI), Y9, Y5
	VMASKMOVPS 64(DI), Y10, Y6
	VMASKMOVPS 96(DI), Y11, Y7
	TILEROW4((SI), Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y12, Y13, Y14, Y15, y1r0)
	ADDQ DX, SI
	ADDQ R12, DI
	DECQ CX
	JNZ  k1

store1:
	YADJKEEP32
	MOVQ       BX, AX
	VMASKMOVPS (AX), Y8, Y12
	VADDPS     Y0, Y12, Y12
	VMASKMOVPS Y12, Y8, (AX)
	VMASKMOVPS 32(AX), Y9, Y12
	VADDPS     Y1, Y12, Y12
	VMASKMOVPS Y12, Y9, 32(AX)
	VMASKMOVPS 64(AX), Y10, Y12
	VADDPS     Y2, Y12, Y12
	VMASKMOVPS Y12, Y10, 64(AX)
	VMASKMOVPS 96(AX), Y11, Y12
	VADDPS     Y3, Y12, Y12
	VMASKMOVPS Y12, Y11, 96(AX)
	SUBQ       $32, R15
	JG         col1

	ADDQ R8, R14
	ADDQ R13, R11
	DECQ mr+0(FP)
	JMP  panel1

done:
	VZEROUPPER
	RET

//go:build amd64

#include "textflag.h"

// The ADAM update (adam.go), AVX2 body: the scalar body's operations lane
// for lane, in its operand order. AVX-512 hosts run it too: the pass is
// memory-bound, and a sixteen-lane body measured no faster
// (BenchmarkAdamStep).

// adamYMask holds eight live lanes then eight dead ones: the 8 floats at
// byte offset 32−4v are a VMASKMOVPS mask for v live lanes.
DATA adamYMask<>+0(SB)/8, $0xffffffffffffffff
DATA adamYMask<>+8(SB)/8, $0xffffffffffffffff
DATA adamYMask<>+16(SB)/8, $0xffffffffffffffff
DATA adamYMask<>+24(SB)/8, $0xffffffffffffffff
DATA adamYMask<>+32(SB)/8, $0
DATA adamYMask<>+40(SB)/8, $0
DATA adamYMask<>+48(SB)/8, $0
DATA adamYMask<>+56(SB)/8, $0
GLOBL adamYMask<>(SB), RODATA|NOPTR, $64

// ADAMMATH updates the vectors g (in), m, v and w (in/out) with the
// constants b1, c1, b2, c2, lr, eps; t0–t3 are scratch.
#define ADAMMATH(g, m, v, w, t0, t1, t2, t3, b1, c1, b2, c2, lr, eps) \
	VMULPS m, b1, m;    \
	VMULPS g, c1, t0;   \
	VADDPS t0, m, m;    \
	VMULPS v, b2, v;    \
	VMULPS g, c2, t1;   \
	VMULPS g, t1, t1;   \
	VADDPS t1, v, v;    \
	VSQRTPS v, t2;      \
	VADDPS eps, t2, t2; \
	VMULPS m, lr, t3;   \
	VDIVPS t2, t3, t3;  \
	VSUBPS t3, w, w

// func adamAVX2(w, g, m, v []float32, b1, c1, b2, c2, lr, eps float32)
//
// Eight elements a step, the tail under the VMASKMOVPS mask Y15 (a
// masked-off lane loads as +0, whose result is not stored). DI/SI/R8/R9
// are w/g/m/v, AX the byte offset, CX the elements left.
TEXT ·adamAVX2(SB), NOSPLIT, $0-120
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	VBROADCASTSS b1+96(FP), Y10
	VBROADCASTSS c1+100(FP), Y11
	VBROADCASTSS b2+104(FP), Y12
	VBROADCASTSS c2+108(FP), Y13
	VBROADCASTSS lr+112(FP), Y14
	VBROADCASTSS eps+116(FP), Y9
	XORQ         AX, AX
	CMPQ         CX, $8
	JLT          ytail

yloop:
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS (R8)(AX*1), Y1
	VMOVUPS (R9)(AX*1), Y2
	VMOVUPS (DI)(AX*1), Y3
	ADAMMATH(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y10, Y11, Y12, Y13, Y14, Y9)
	VMOVUPS Y1, (R8)(AX*1)
	VMOVUPS Y2, (R9)(AX*1)
	VMOVUPS Y3, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     yloop

ytail:
	TESTQ      CX, CX
	JZ         ydone
	NEGQ       CX
	LEAQ       adamYMask<>(SB), BX
	VMOVDQU    32(BX)(CX*4), Y15
	VMASKMOVPS (SI)(AX*1), Y15, Y0
	VMASKMOVPS (R8)(AX*1), Y15, Y1
	VMASKMOVPS (R9)(AX*1), Y15, Y2
	VMASKMOVPS (DI)(AX*1), Y15, Y3
	ADAMMATH(Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y10, Y11, Y12, Y13, Y14, Y9)
	VMASKMOVPS Y1, Y15, (R8)(AX*1)
	VMASKMOVPS Y2, Y15, (R9)(AX*1)
	VMASKMOVPS Y3, Y15, (DI)(AX*1)

ydone:
	VZEROUPPER
	RET

//go:build amd64

#include "textflag.h"

// func scalAVX2(alpha float32, x []float32)
//
// x[i] = alpha * x[i]. Elementwise with separate rounding per element, so
// every ISA body is bitwise-identical to scalGeneric.
TEXT ·scalAVX2(SB), NOSPLIT, $0-32
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	VBROADCASTSS alpha+0(FP), Y0

	MOVQ CX, BX
	SHRQ $5, BX   // 32-float blocks
	JZ   blk8

loop32:
	VMOVUPS (SI), Y1
	VMOVUPS 32(SI), Y2
	VMOVUPS 64(SI), Y3
	VMOVUPS 96(SI), Y4
	VMULPS  Y0, Y1, Y1
	VMULPS  Y0, Y2, Y2
	VMULPS  Y0, Y3, Y3
	VMULPS  Y0, Y4, Y4
	VMOVUPS Y1, (SI)
	VMOVUPS Y2, 32(SI)
	VMOVUPS Y3, 64(SI)
	VMOVUPS Y4, 96(SI)
	ADDQ    $128, SI
	DECQ    BX
	JNZ     loop32

blk8:
	ANDQ $31, CX
	MOVQ CX, BX
	SHRQ $3, BX   // 8-float blocks
	JZ   tail

loop8:
	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VMOVUPS Y1, (SI)
	ADDQ    $32, SI
	DECQ    BX
	JNZ     loop8

tail:
	ANDQ $7, CX
	JZ   done

loop1:
	VMOVSS (SI), X1
	VMULSS X0, X1, X1
	VMOVSS X1, (SI)
	ADDQ   $4, SI
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET

// func axpy4AVX2(a0, a1, a2, a3 float32, x, y0, y1, y2, y3 []float32)
//
// Four C-row updates sharing one streamed x row — the register-blocked
// micro-kernel of the tiled GEMM. Each row performs exactly the axpy
// sequence (separate VMULPS/VADDPS, never FMA), so the result is bitwise
// identical to four axpy calls; the win is that each x block is loaded
// once instead of four times.
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-136
	MOVQ x_base+16(FP), SI
	MOVQ y0_base+40(FP), R8
	MOVQ y1_base+64(FP), R9
	MOVQ y2_base+88(FP), R10
	MOVQ y3_base+112(FP), R11
	MOVQ y0_len+48(FP), CX
	VBROADCASTSS a0+0(FP), Y0
	VBROADCASTSS a1+4(FP), Y1
	VBROADCASTSS a2+8(FP), Y2
	VBROADCASTSS a3+12(FP), Y3

	MOVQ CX, BX
	SHRQ $3, BX   // 8-float blocks
	JZ   tail

loop8:
	VMOVUPS (SI), Y4
	VMULPS  Y0, Y4, Y5
	VADDPS  (R8), Y5, Y5
	VMOVUPS Y5, (R8)
	VMULPS  Y1, Y4, Y5
	VADDPS  (R9), Y5, Y5
	VMOVUPS Y5, (R9)
	VMULPS  Y2, Y4, Y5
	VADDPS  (R10), Y5, Y5
	VMOVUPS Y5, (R10)
	VMULPS  Y3, Y4, Y5
	VADDPS  (R11), Y5, Y5
	VMOVUPS Y5, (R11)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	DECQ    BX
	JNZ     loop8

tail:
	ANDQ $7, CX
	JZ   done

loop1:
	VMOVSS (SI), X4
	VMULSS X0, X4, X5
	VADDSS (R8), X5, X5
	VMOVSS X5, (R8)
	VMULSS X1, X4, X5
	VADDSS (R9), X5, X5
	VMOVSS X5, (R9)
	VMULSS X2, X4, X5
	VADDSS (R10), X5, X5
	VMOVSS X5, (R10)
	VMULSS X3, X4, X5
	VADDSS (R11), X5, X5
	VMOVSS X5, (R11)
	ADDQ   $4, SI
	ADDQ   $4, R8
	ADDQ   $4, R9
	ADDQ   $4, R10
	ADDQ   $4, R11
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET

// func axpyAVX512(alpha float32, x, y []float32)
//
// 16-lane ZMM form of axpy. Elementwise, separate multiply and add, so
// bitwise-identical to axpyGeneric and axpyAVX2.
TEXT ·axpyAVX512(SB), NOSPLIT, $0-56
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	VBROADCASTSS alpha+0(FP), Z0

	MOVQ CX, BX
	SHRQ $4, BX   // 16-float blocks
	JZ   blk8

loop16:
	VMOVUPS (SI), Z1
	VMULPS  Z0, Z1, Z1
	VADDPS  (DI), Z1, Z1
	VMOVUPS Z1, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    BX
	JNZ     loop16

blk8:
	ANDQ $15, CX
	MOVQ CX, BX
	SHRQ $3, BX   // one optional 8-float block
	JZ   tail

	VMOVUPS (SI), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI

tail:
	ANDQ $7, CX
	JZ   done

loop1:
	VMOVSS (SI), X1
	VMULSS X0, X1, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    loop1

done:
	VZEROUPPER
	RET

// func sdotAVX512(x, y []float32) float32
//
// One ZMM accumulator whose 16 lanes are exactly the two 8-lane groups of
// the AVX2 kernel (lanes 0-7 = s0..s7, lanes 8-15 = r0..r7): the 64X4
// extract-and-add IS the s+=r merge, the optional 8-block lands on the
// merged s-group, and the reduction tree is the AVX2/sdotGeneric tree.
// A second ZMM accumulator would change the summation structure and break
// the cross-ISA bitwise guarantee — keep it single.
TEXT ·sdotAVX512(SB), NOSPLIT, $0-52
	MOVQ   x_base+0(FP), SI
	MOVQ   y_base+24(FP), DI
	MOVQ   x_len+8(FP), CX
	VXORPS Z0, Z0, Z0

	MOVQ CX, BX
	SHRQ $4, BX   // 16-float blocks
	JZ   merge

loop16:
	VMOVUPS (SI), Z2
	VMULPS  (DI), Z2, Z2
	VADDPS  Z2, Z0, Z0
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    BX
	JNZ     loop16

merge:
	// s += r: fold lanes 8-15 onto lanes 0-7.
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPS        Y1, Y0, Y0
	ANDQ          $15, CX
	MOVQ          CX, BX
	SHRQ          $3, BX   // one optional 8-float block
	JZ            reduce

	VMOVUPS (SI), Y2
	VMULPS  (DI), Y2, Y2
	VADDPS  Y2, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI

reduce:
	// ((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7)), the sdotGeneric tree.
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VPERMILPS    $0xEE, X0, X1
	VADDPS       X1, X0, X0
	VMOVSHDUP    X0, X1
	VADDSS       X1, X0, X0

	ANDQ $7, CX
	JZ   done

tail:
	VMOVSS (SI), X1
	VMULSS (DI), X1, X1
	VADDSS X1, X0, X0
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    tail

done:
	VZEROUPPER
	MOVSS X0, ret+48(FP)
	RET

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

package tensor

import "math"

// The non-GEMM kernels of a convolution unit: ReLU forward and backward,
// 2×2/stride-2 max pooling with and without argmax, and the strip add under
// the stride-1 col2im. They sit on the same dispatch table as the GEMM tiles
// (kernels.go) and honour the same contract: every ISA body is bitwise
// identical to the Go body here. That is cheap for this family — max,
// select, copy and a same-order add are all exact — but the operand order
// of each vector instruction still pins the special values, and the
// comments below say which ones.

var negInf = float32(math.Inf(-1))

// relu is the active kernel behind ReLU.
var relu = reluGeneric

// reluGeneric: y[i] = x[i] if x[i] > 0, else +0. NaN and −0 both fail the
// comparison and become +0.
func reluGeneric(y, x []float32) {
	x = x[:len(y)]
	for i, v := range x {
		if v > 0 {
			y[i] = v
		} else {
			y[i] = 0
		}
	}
}

// reluGrad is the active kernel behind ReLUGrad.
var reluGrad = reluGradGeneric

// reluGradGeneric: dx[i] = g[i] if y[i] > 0, else +0.
func reluGradGeneric(dx, y, g []float32) {
	y, g = y[:len(dx)], g[:len(dx)]
	for i, v := range y {
		if v > 0 {
			dx[i] = g[i]
		} else {
			dx[i] = 0
		}
	}
}

// maxPool2x2 is the active kernel behind MaxPool2x2.
var maxPool2x2 = maxPool2x2Generic

// maxPool2x2Generic pools one pair of input rows into one output row:
// dst[i] is the maximum of r0[2i], r0[2i+1], r1[2i], r1[2i+1], scanned in
// that order from −Inf with a strict >, so the first of equal values wins
// (+0 against −0 included), NaN never wins, and an all-NaN window yields
// −Inf.
func maxPool2x2Generic(dst, r0, r1 []float32) {
	r0, r1 = r0[:2*len(dst)], r1[:2*len(dst)]
	for i := range dst {
		best := negInf
		if v := r0[2*i]; v > best {
			best = v
		}
		if v := r0[2*i+1]; v > best {
			best = v
		}
		if v := r1[2*i]; v > best {
			best = v
		}
		if v := r1[2*i+1]; v > best {
			best = v
		}
		dst[i] = best
	}
}

// maxPool2x2Argmax is the active kernel behind MaxPool2x2Argmax.
var maxPool2x2Argmax = maxPool2x2ArgmaxGeneric

// maxPool2x2ArgmaxGeneric is maxPool2x2Generic that also records the
// winner's offset within its plane: r0[j] sits at base+j and r1[j] at
// base+w+j. A window nothing wins (all NaN or −Inf) records offset 0.
func maxPool2x2ArgmaxGeneric(dst []float32, idx []int32, r0, r1 []float32, base, w int32) {
	r0, r1, idx = r0[:2*len(dst)], r1[:2*len(dst)], idx[:len(dst)]
	for i := range dst {
		best, at := negInf, int32(0)
		j := int32(2 * i)
		if v := r0[j]; v > best {
			best, at = v, base+j
		}
		if v := r0[j+1]; v > best {
			best, at = v, base+j+1
		}
		if v := r1[j]; v > best {
			best, at = v, base+w+j
		}
		if v := r1[j+1]; v > best {
			best, at = v, base+w+j+1
		}
		dst[i], idx[i] = best, at
	}
}

// addRows is the active strip-add kernel: for r < rows,
// dst[r*dstPitch+i] += src[r*srcPitch+i] over i < n. One call covers a
// whole (channel, tap) plane of a stride-1 col2im, whose rows are as short
// as four floats; per-row calls would spend their time on call set-up.
var addRows = addRowsGeneric

func addRowsGeneric(dst, src []float32, rows, dstPitch, srcPitch, n int) {
	for r := 0; r < rows; r++ {
		d := dst[r*dstPitch : r*dstPitch+n]
		s := src[r*srcPitch : r*srcPitch+n]
		for i, v := range s {
			d[i] += v
		}
	}
}

// ReLU computes y[i] = max(x[i], 0) with NaN and −0 mapped to +0.
func ReLU(y, x []float32) {
	if len(x) != len(y) {
		panic("tensor: ReLU length mismatch")
	}
	relu(y, x)
}

// ReLUGrad computes dx[i] = g[i] where the saved ReLU output y[i] is
// positive and +0 elsewhere. y > 0 exactly where the forward input was, so
// the output doubles as the backward mask.
func ReLUGrad(dx, y, g []float32) {
	if len(y) != len(dx) || len(g) != len(dx) {
		panic("tensor: ReLUGrad length mismatch")
	}
	reluGrad(dx, y, g)
}

// MaxPool2x2 max-pools the input row pair r0, r1 (2·len(dst) floats each)
// into dst with a 2×2 window at stride 2.
func MaxPool2x2(dst, r0, r1 []float32) {
	if len(r0) != 2*len(dst) || len(r1) != 2*len(dst) {
		panic("tensor: MaxPool2x2 row length mismatch")
	}
	maxPool2x2(dst, r0, r1)
}

// MaxPool2x2Argmax is MaxPool2x2 that also writes each winner's offset in
// its plane to idx, given that r0 starts at offset base and the plane is w
// wide (so r1 starts at base+w).
func MaxPool2x2Argmax(dst []float32, idx []int32, r0, r1 []float32, base, w int) {
	if len(r0) != 2*len(dst) || len(r1) != 2*len(dst) || len(idx) != len(dst) {
		panic("tensor: MaxPool2x2Argmax row length mismatch")
	}
	maxPool2x2Argmax(dst, idx, r0, r1, int32(base), int32(w))
}

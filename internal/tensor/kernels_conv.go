package tensor

import "math"

// The non-GEMM kernels of a convolution unit: ReLU forward and backward,
// 2×2/stride-2 max pooling with and without argmax, and the row gather and
// row add under the lowerings. They sit on the same dispatch table as the
// GEMM tiles (kernels.go) and honour the same contract: every ISA body is
// bitwise identical to the Go body here. That is cheap for this family —
// max, select, copy and a same-order add are all exact — but the operand
// order of each vector instruction still pins the special values, and the
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

// gatherRows is the active strided-gather kernel: for p < planes, r < rows,
// dst[p*dstPlane+r*dstPitch+i] = src[p*srcPlane+r*srcPitch+i*step] over
// i < n — one tap of a strided im2col over a group of channels, clipped to
// the window that lands inside the image. A plane's rows are 4 to 16 floats
// and the smallest planes 4 rows, so a call per row, or even per plane,
// would spend its time on call set-up.
var gatherRows = gatherRowsGeneric

func gatherRowsGeneric(dst, src []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n, step int) {
	for p := 0; p < planes; p++ {
		for r := 0; r < rows; r++ {
			d := dst[p*dstPlane+r*dstPitch:][:n]
			s := src[p*srcPlane+r*srcPitch:]
			for i := range d {
				d[i] = s[i*step]
			}
		}
	}
}

// scatterRows is gatherRows' mirror, the add under col2im:
// dst[p*dstPlane+r*dstPitch+i*step] += src[p*srcPlane+r*srcPitch+i]. Step 1
// is the stride-1 strip add. The elements of dst between the steps are
// neither read nor written.
var scatterRows = scatterRowsGeneric

func scatterRowsGeneric(dst, src []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n, step int) {
	for p := 0; p < planes; p++ {
		for r := 0; r < rows; r++ {
			d := dst[p*dstPlane+r*dstPitch:]
			s := src[p*srcPlane+r*srcPitch:][:n]
			for i, v := range s {
				d[i*step] += v
			}
		}
	}
}

// RowSums adds to acc[r] the sum of row r of the rows×n matrix src — the
// per-channel bias gradient of one sample's output gradient. Each row is
// summed left to right from +0 and added to acc once; that chain is one
// dependent add per element, so four rows run side by side, which
// interleaves the chains without reordering any of them. It has the one
// body: eight chains in assembly measured 0.19 ns an element against this
// loop's 0.22–0.29 and a single chain's 0.5–0.8 (EXPERIMENTS.md "PR 23").
func RowSums(acc, src []float32, rows, n int) {
	if len(acc) < rows || len(src) < rows*n {
		panic("tensor: RowSums operand too small")
	}
	r := 0
	for ; r+4 <= rows; r += 4 {
		a := src[r*n : (r+1)*n]
		b, c, d := src[(r+1)*n:][:len(a)], src[(r+2)*n:][:len(a)], src[(r+3)*n:][:len(a)]
		var s0, s1, s2, s3 float32
		for i, v := range a {
			s0 += v
			s1 += b[i]
			s2 += c[i]
			s3 += d[i]
		}
		acc[r] += s0
		acc[r+1] += s1
		acc[r+2] += s2
		acc[r+3] += s3
	}
	for ; r < rows; r++ {
		var s float32
		for _, v := range src[r*n : (r+1)*n] {
			s += v
		}
		acc[r] += s
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

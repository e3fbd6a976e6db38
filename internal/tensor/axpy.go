package tensor

// A row update y += alpha*x (an "axpy"): tensor.Axpy, and one k step of one
// row of the GEMM's scalar tile (gemm_tile.go). On amd64 with AVX2 it
// dispatches to an 8-lane vector kernel; everywhere else (and for short
// tails) the 4-way unrolled scalar loop runs. The vector kernel
// deliberately uses separate multiply and add instructions — not FMA — so
// every element sees exactly the scalar sequence
// round(round(alpha*x[i]) + y[i]) and results are bitwise identical across
// dispatch choices; no test or checkpoint can tell which machine produced a
// number.

// axpy is the active kernel: y[i] += alpha * x[i] for i < len(y).
// len(x) must be >= len(y). Installed by SetKernels; see kernels.go.
var axpy = axpyGeneric

func axpyGeneric(alpha float32, x, y []float32) {
	// The explicit float32 conversions force the multiply to round before
	// the add: the Go spec otherwise permits fusing `y + alpha*x` into a
	// single FMA (and gc does, on arm64/ppc64), which would break the
	// cross-machine bitwise guarantee above.
	j := 0
	for ; j+4 <= len(y); j += 4 {
		y[j] += float32(alpha * x[j])
		y[j+1] += float32(alpha * x[j+1])
		y[j+2] += float32(alpha * x[j+2])
		y[j+3] += float32(alpha * x[j+3])
	}
	for ; j < len(y); j++ {
		y[j] += float32(alpha * x[j])
	}
}

package tensor

// Elementwise vector kernels shared by layers, solvers and the communicator.
// They operate on raw slices so gradient buffers, parameter-server payloads
// and tensor data use one implementation.

// Axpy computes y += alpha*x via the dispatched kernel (see axpy.go).
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	axpy(alpha, x, y)
}

// Scale computes x *= alpha via the dispatched kernel (see kernels.go).
func Scale(alpha float32, x []float32) {
	scal(alpha, x)
}

// Add computes dst = a + b elementwise.
func Add(dst, a, b []float32) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("tensor: Add length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Sub computes dst = a - b elementwise.
func Sub(dst, a, b []float32) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("tensor: Sub length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// Dot returns the inner product in float64 for accuracy. Each product is
// rounded before it is added (no fused multiply-add; see axpy.go).
func Dot(x, y []float32) float64 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i := range x {
		s += float64(float64(x[i]) * float64(y[i]))
	}
	return s
}

// AccumulateInto adds each of srcs into dst (dst must be pre-sized). Used by
// the communicator's reduction tree and by gradient aggregation.
func AccumulateInto(dst []float32, srcs ...[]float32) {
	for _, s := range srcs {
		Axpy(1, s, dst)
	}
}

// MeanSquaredError returns mean((a-b)^2).
func MeanSquaredError(a, b []float32) float64 {
	if len(a) != len(b) {
		panic("tensor: MeanSquaredError length mismatch")
	}
	if len(a) == 0 {
		return 0
	}
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += float64(d * d)
	}
	return s / float64(len(a))
}

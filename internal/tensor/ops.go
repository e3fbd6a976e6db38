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

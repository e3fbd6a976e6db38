package tensor

// Runtime kernel dispatch. Every hot arithmetic body in this package —
// the fp32 GEMM's two register tiles (gemm_tile.go), the direct
// convolution's tile and epilogue (conv_tile.go), axpy, the in-place
// scale, the conv unit's ReLU, 2×2 max-pool and the lowerings' row gather
// and row add (kernels_conv.go), and the int8 datapath's micro-kernel,
// epilogue, quantizer and byte pool (gemm_s8.go) — is a package-level
// function variable installed by SetKernels.
// One probe (kernels_amd64.go) classifies the host at init and picks the
// widest safe body; SetKernels("scalar"|"avx2"|"avx512"|"auto") re-routes
// the whole table at runtime, which is what cmd/deepserve's -kernels flag
// and the CI bitwise-equality smoke drive.
//
// The contract every body must honour: for float32 kernels, bitwise-
// identical results across ISAs (separate multiply and add, never FMA;
// accumulator structure mirrored exactly between scalar and vector forms —
// see axpy.go and dot.go). Integer kernels are exact, so any body agrees
// automatically. SetKernels is not safe to call concurrently with running
// kernels; switch ISAs between passes, not during one.

import "fmt"

// kernelISA names the installed table: "scalar", "avx2" or "avx512".
var kernelISA = "scalar"

// KernelISA reports which kernel bodies are installed.
func KernelISA() string { return kernelISA }

// SetKernels installs the kernel table for the named ISA. "auto" picks the
// widest the host supports. It returns an error (leaving the table
// unchanged) if the host cannot run the requested ISA.
func SetKernels(mode string) error { return setKernels(mode) }

// KernelISAs lists the ISAs the host can run, narrowest first.
func KernelISAs() []string { return kernelISAs() }

// installScalar routes every kernel to its portable Go body.
func installScalar() {
	gemmTile = gemmTileGeneric
	dotTile = dotTileGeneric
	convTile = convTileGeneric
	convStore = convStoreGeneric
	axpy = axpyGeneric
	scal = scalGeneric
	relu = reluGeneric
	reluGrad = reluGradGeneric
	maxPool2x2 = maxPool2x2Generic
	maxPool2x2Argmax = maxPool2x2ArgmaxGeneric
	gatherRows = gatherRowsGeneric
	scatterRows = scatterRowsGeneric
	convS8 = convS8Generic
	requantF32 = requantF32Generic
	requantU8 = requantU8Generic
	quantizeU8 = quantizeU8Generic
	maxPool2x2U8 = maxPool2x2U8Generic
	kernelISA = "scalar"
}

// scal is the active in-place scale kernel: x[i] = alpha*x[i].
var scal = scalGeneric

func scalGeneric(alpha float32, x []float32) {
	j := 0
	for ; j+4 <= len(x); j += 4 {
		x[j] = float32(alpha * x[j])
		x[j+1] = float32(alpha * x[j+1])
		x[j+2] = float32(alpha * x[j+2])
		x[j+3] = float32(alpha * x[j+3])
	}
	for ; j < len(x); j++ {
		x[j] = float32(alpha * x[j])
	}
}

func unknownISA(mode string) error {
	return fmt.Errorf("tensor: unknown or unsupported kernel ISA %q (host supports %v)", mode, kernelISAs())
}

// Package quant implements low-precision gradient compression, the §VIII-A
// direction the paper flags for future hardware: "training with quantized
// weights and activations … with various forms of stochastic rounding being
// of critical importance in convergence". Gradients quantize to int8 with a
// per-chunk scale before the wire (internal/comm's int8 codec), cutting
// parameter-server and allreduce payloads 4x. The per-channel weight and
// u8 activation quantizers of the int8 inference datapath (nn.QuantPlan)
// live in channels.go.
//
// Two rounding modes are provided because their difference is the point:
// round-to-nearest silently zeroes every gradient smaller than half the
// quantisation step, stalling convergence, while stochastic rounding is
// unbiased (E[dequantize(quantize(x))] = x) and keeps small gradients
// alive in expectation.
package quant

import (
	"math"

	"deep15pf/internal/tensor"
)

// ScaleFor returns the per-block scale mapping the max magnitude of src to
// 127 (1 for an all-zero block). The streamed gradient wire calls it per
// chunk, so one outlier only coarsens its own chunk's quantisation grid.
func ScaleFor(src []float32) float32 {
	maxAbs := MaxAbs(src)
	if maxAbs == 0 {
		return 1
	}
	return maxAbs / 127
}

// MaxAbs returns the largest magnitude in src (0 for empty) — the
// statistic every scale derives from. NaN is skipped and an infinity
// counts as the largest finite float, so the scale is always finite: an Inf
// in a calibration batch or a gradient chunk saturates its own bytes
// instead of turning the shared scale into Inf, and everything quantized on
// it into NaN.
func MaxAbs(src []float32) float32 {
	var m float32
	for _, v := range src {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return min(m, math.MaxFloat32)
}

// StochasticInto quantises src into dst (equal length) with the given scale
// using stochastic rounding, allocating nothing. It is the building block
// the comm wire codec assembles into chunked encodes over reused buffers.
func StochasticInto(dst []int8, src []float32, scale float32, rng *tensor.RNG) {
	if len(dst) != len(src) {
		panic("quant: StochasticInto length mismatch")
	}
	inv := 1 / scale
	for i, v := range src {
		x := float64(v * inv)
		lo := math.Floor(x)
		frac := x - lo
		r := lo
		if rng.Float64() < frac {
			r = lo + 1
		}
		dst[i] = clampInt8(r)
	}
}

// NearestInto quantises src into dst with round-to-nearest (the biased
// baseline), allocating nothing.
func NearestInto(dst []int8, src []float32, scale float32) {
	if len(dst) != len(src) {
		panic("quant: NearestInto length mismatch")
	}
	inv := 1 / scale
	for i, v := range src {
		dst[i] = clampInt8(math.Round(float64(v * inv)))
	}
}

// DequantizeInto expands src into dst (equal length) at the given scale,
// allocating nothing.
func DequantizeInto(dst []float32, src []int8, scale float32) {
	if len(dst) != len(src) {
		panic("quant: DequantizeInto length mismatch")
	}
	for i, v := range src {
		dst[i] = float32(v) * scale
	}
}

func clampInt8(v float64) int8 {
	if v > 127 {
		return 127
	}
	if v < -128 {
		return -128
	}
	return int8(v)
}

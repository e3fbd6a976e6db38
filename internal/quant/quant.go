// Package quant implements low-precision gradient compression, the §VIII-A
// direction the paper flags for future hardware: "training with quantized
// weights and activations … with various forms of stochastic rounding being
// of critical importance in convergence". Gradients quantize to int8 with a
// per-tensor scale before the (simulated or real) wire, cutting parameter-
// server and allreduce payloads 4x.
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

// Quantized is an int8-compressed tensor with its dequantisation scale.
type Quantized struct {
	Data  []int8
	Scale float32 // value = Data[i] * Scale
}

// Bytes returns the wire size (payload + scale).
func (q Quantized) Bytes() int { return len(q.Data) + 4 }

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
// counts as the largest finite float, so the scale is always finite: one
// request's Inf saturates its own bytes instead of turning the scale the
// whole batch shares into Inf, and every other sample's logits into NaN.
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

// Stochastic quantises with stochastic rounding: x/scale rounds up with
// probability equal to its fractional part, making the estimator unbiased.
func Stochastic(src []float32, rng *tensor.RNG) Quantized {
	q := Quantized{Data: make([]int8, len(src)), Scale: ScaleFor(src)}
	StochasticInto(q.Data, src, q.Scale, rng)
	return q
}

// Nearest quantises with round-to-nearest (the biased baseline).
func Nearest(src []float32) Quantized {
	q := Quantized{Data: make([]int8, len(src)), Scale: ScaleFor(src)}
	NearestInto(q.Data, src, q.Scale)
	return q
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

// Dequantize expands q into dst (which must have matching length).
func Dequantize(q Quantized, dst []float32) {
	DequantizeInto(dst, q.Data, q.Scale)
}

// RoundTrip compresses and immediately decompresses in place — the exact
// distortion a gradient suffers crossing a quantised wire.
func RoundTrip(data []float32, rng *tensor.RNG, stochastic bool) {
	var q Quantized
	if stochastic {
		q = Stochastic(data, rng)
	} else {
		q = Nearest(data)
	}
	Dequantize(q, data)
}

// RoundTripTensor round-trips a tensor's storage through int8 in place. The
// serving layer uses it for its low-precision mode: weights round-trip once
// at checkpoint load and activations round-trip at layer boundaries, so the
// float pipeline computes exactly what an int8 weight/activation datapath
// would see (per-tensor scale, stochastic rounding).
func RoundTripTensor(t *tensor.Tensor, rng *tensor.RNG, stochastic bool) {
	RoundTrip(t.Data, rng, stochastic)
}

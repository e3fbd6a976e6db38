package quant

import "deep15pf/internal/tensor"

// Per-channel (axis-0) weight quantisation for the int8 serving datapath.
// A weight matrix [Out, In] (dense) or [OutC, InC·KH·KW] (conv, im2col
// layout) quantises with one symmetric scale per output channel — per-row
// of the matrix — so one large filter does not coarsen the grid for every
// other filter. Activations stay per-tensor (see QuantizeU8Into): the GEMM
// then needs only a per-output-channel rescale at requantize time.

// ScaleForChannels returns one symmetric scale per output channel for a
// weight matrix whose rows are cols long: scales[ch] maps the max
// magnitude of src[ch*cols:(ch+1)*cols] to 127 (1 for an all-zero
// channel). len(src) must be a multiple of cols.
func ScaleForChannels(src []float32, cols int) []float32 {
	if cols <= 0 || len(src)%cols != 0 {
		panic("quant: ScaleForChannels bad cols")
	}
	scales := make([]float32, len(src)/cols)
	ScaleForChannelsInto(scales, src, cols)
	return scales
}

// ScaleForChannelsInto fills scales (one per channel) without allocating.
func ScaleForChannelsInto(scales []float32, src []float32, cols int) {
	if cols <= 0 || len(src) != len(scales)*cols {
		panic("quant: ScaleForChannelsInto length mismatch")
	}
	for ch := range scales {
		scales[ch] = ScaleFor(src[ch*cols : (ch+1)*cols])
	}
}

// QuantizeChannelsInto quantises src into dst with round-to-nearest using
// one scale per cols-long channel. Round-to-nearest (not stochastic) is
// correct here: weights quantise once at model load, where bias matters
// less than variance, and determinism is required across replicas.
func QuantizeChannelsInto(dst []int8, src []float32, scales []float32, cols int) {
	if len(dst) != len(src) || cols <= 0 || len(src) != len(scales)*cols {
		panic("quant: QuantizeChannelsInto length mismatch")
	}
	for ch, s := range scales {
		NearestInto(dst[ch*cols:(ch+1)*cols], src[ch*cols:(ch+1)*cols], s)
	}
}

// QuantizeU8Into quantises activations into unsigned bytes with zero-point
// 128: q = clamp(round(v/scale) + 128, 0, 255), rounding half up in
// float64. Dequantisation is v ≈ (q-128)·scale, so the zero-point byte
// dequantizes to exactly 0 — conv padding uses it directly — and it is
// also what NaN maps to; ±Inf saturate. The arithmetic is the dispatched
// tensor.QuantizeU8 kernel's, the same in every ISA body. Allocates
// nothing.
func QuantizeU8Into(dst []uint8, src []float32, scale float32) {
	if len(dst) != len(src) {
		panic("quant: QuantizeU8Into length mismatch")
	}
	tensor.QuantizeU8(dst, src, 1, len(src), 0, 1, 1/float64(scale))
}

// DequantizeU8Into expands zero-point-128 bytes back to floats.
func DequantizeU8Into(dst []float32, src []uint8, scale float32) {
	if len(dst) != len(src) {
		panic("quant: DequantizeU8Into length mismatch")
	}
	for i, q := range src {
		dst[i] = float32(int32(q)-128) * scale
	}
}

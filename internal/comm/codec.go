package comm

import (
	"fmt"

	"deep15pf/internal/quant"
	"deep15pf/internal/tensor"
)

// Wire is one parameter blob's on-the-wire form: either an fp32 identity
// payload or an int8 payload with one dequantisation scale per ChunkElems
// chunk. A Wire's buffers are grown once and reused across encodes, so the
// steady state of a training run serialises gradients without allocating.
//
// In this in-process reproduction the Wire is handed to the parameter
// server by pointer; Bytes() is what the equivalent network transfer would
// move, which is the quantity the bytes-on-wire accounting sums.
type Wire struct {
	N      int       // element count of the decoded payload
	F32    []float32 // identity payload (fp32 codec; nil otherwise)
	I8     []int8    // quantised payload (int8 codec; nil otherwise)
	Scales []float32 // per-chunk scales (int8 codec; nil otherwise)
}

// Bytes returns the encoded payload size: what a real interconnect would
// carry for this blob.
func (w *Wire) Bytes() int64 {
	if w.I8 != nil {
		return int64(len(w.I8)) + 4*int64(len(w.Scales))
	}
	return 4 * int64(len(w.F32))
}

// Codec serialises gradient blobs onto the parameter-server wire. A codec
// instance is single-goroutine (the int8 codec owns rounding RNG state);
// every pusher creates its own via NewCodec.
type Codec interface {
	// Name identifies the codec ("fp32" or "int8").
	Name() string
	// WireBytes returns the encoded size of an n-element blob.
	WireBytes(n int) int64
	// Encode fills w from src, reusing w's buffers.
	Encode(w *Wire, src []float32)
	// Decode expands w into dst, which must hold exactly w.N elements.
	Decode(w *Wire, dst []float32)
}

// NewCodec builds a codec by name. "" and "fp32" give the identity codec;
// "int8" gives stochastic-rounding int8 with per-chunk scales, seeded for
// deterministic rounding streams.
func NewCodec(name string, seed uint64) (Codec, error) {
	switch name {
	case "", "fp32":
		return fp32Codec{}, nil
	case "int8":
		return &int8Codec{rng: tensor.NewRNG(seed ^ 0x17C0DEC1)}, nil
	default:
		return nil, fmt.Errorf("comm: unknown codec %q", name)
	}
}

// fp32Codec copies bits through unchanged: the wire carries exactly the
// gradients the trainer produced, so the fp32 path of the refactored
// trainer stays bitwise identical to the lockstep original.
type fp32Codec struct{}

func (fp32Codec) Name() string { return "fp32" }

func (fp32Codec) WireBytes(n int) int64 { return 4 * int64(n) }

func (fp32Codec) Encode(w *Wire, src []float32) {
	w.N = len(src)
	w.F32 = growF32(w.F32, len(src))
	copy(w.F32, src)
	w.I8, w.Scales = nil, nil
}

func (fp32Codec) Decode(w *Wire, dst []float32) {
	if len(dst) != w.N {
		panic("comm: fp32 Decode length mismatch")
	}
	copy(dst, w.F32)
}

// int8Codec quantises each ChunkElems chunk to int8 with its own scale and
// stochastic rounding (quant package): 4x payload reduction with an
// unbiased estimator, the §VIII-A configuration.
type int8Codec struct {
	rng *tensor.RNG
}

func (*int8Codec) Name() string { return "int8" }

func (*int8Codec) WireBytes(n int) int64 {
	return int64(n) + 4*int64(numChunks(n))
}

func (c *int8Codec) Encode(w *Wire, src []float32) {
	n := len(src)
	w.N = n
	w.I8 = growI8(w.I8, n)
	w.Scales = growF32(w.Scales, numChunks(n))
	w.F32 = nil
	for ci, lo := 0, 0; lo < n; ci, lo = ci+1, lo+ChunkElems {
		hi := lo + ChunkElems
		if hi > n {
			hi = n
		}
		s := quant.ScaleFor(src[lo:hi])
		w.Scales[ci] = s
		quant.StochasticInto(w.I8[lo:hi], src[lo:hi], s, c.rng)
	}
}

func (*int8Codec) Decode(w *Wire, dst []float32) {
	if len(dst) != w.N {
		panic("comm: int8 Decode length mismatch")
	}
	for ci, lo := 0, 0; lo < w.N; ci, lo = ci+1, lo+ChunkElems {
		hi := min(lo+ChunkElems, w.N)
		quant.DequantizeInto(dst[lo:hi], w.I8[lo:hi], w.Scales[ci])
	}
}

func numChunks(n int) int {
	return (n + ChunkElems - 1) / ChunkElems
}

func growF32(s []float32, n int) []float32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float32, n)
}

func growI8(s []int8, n int) []int8 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int8, n)
}

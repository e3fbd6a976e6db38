package nn

import (
	"fmt"

	"deep15pf/internal/tensor"
)

// Conv2D is a 2-D convolution lowered to im2col + GEMM, the same strategy
// as the MKL 2017 direct-convolution primitives the paper builds on. Weights
// are stored [OutC, InC·KH·KW] so the forward pass of every output channel
// is one row of a single GEMM.
type Conv2D struct {
	LayerName    string
	InC, OutC    int
	KH, KW       int
	Stride, Pad  int
	Weight, Bias *Param
	noBias       bool
}

// colBudget caps (in float32s) the lowered column matrix a convolution
// builds at once. Both passes lower as many whole samples as fit it into one
// wide matrix and multiply them in a single GEMM: a batch of small planes
// (hep-small's conv4 is 16 columns per sample) otherwise pays the GEMM's
// fixed costs once per sample. 256K floats is 1 MiB, half of one core's L2
// here. Re-measured on tiled plans (a hep-small batch of 256 as tiles of
// 32, PR 24): 64K, 128K and 256K read the same (12.7 / 11.7 / 12.6 ms on
// two lanes, 19.7 / 20.4 / 21.7 on one), 512K and 2M are 25–30% slower
// (16.0 / 16.3 and 26.3 / 28.6): the matrix leaves L2. A half-sized matrix
// used to cost 15–20% because it doubled the fork-joins per pass; the
// passes fork nothing now, so only the ceiling is left. At paper scale —
// conv2 alone is 14.4M floats per sample — it degrades to per-sample
// lowering.
//
// trainColBudget is the same cap on the training datapath, and half as
// large: an inference plan holds one such matrix for all its convolutions
// (Plan.evalSt; one per lane when tiled), a training plan one per
// convolution per replica, because
// a lowering that fits is kept for backward. At 128K floats a hep-small
// batch-16 plan's arena is 8.8 MB (7.5 MB before lowerings were batched,
// 11.2 MB at 256K) for 5% of the step time.
//
// Both are variables only so tests can force the chunked path.
var (
	colBudget      = 1 << 18
	trainColBudget = 1 << 17
)

// NewConv2D constructs a convolution layer with He-initialised weights.
func NewConv2D(name string, inC, outC, k, stride, pad int, rng *tensor.RNG) *Conv2D {
	c := &Conv2D{
		LayerName: name,
		InC:       inC, OutC: outC,
		KH: k, KW: k,
		Stride: stride, Pad: pad,
	}
	c.Weight = &Param{
		Name: name + ".weight",
		W:    tensor.New(outC, inC*k*k),
		Grad: tensor.New(outC, inC*k*k),
	}
	c.Bias = &Param{
		Name: name + ".bias",
		W:    tensor.New(outC),
		Grad: tensor.New(outC),
	}
	HeInit(c.Weight.W, inC*k*k, rng)
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.LayerName }

// Params implements Layer.
func (c *Conv2D) Params() []*Param {
	if c.noBias {
		return []*Param{c.Weight}
	}
	return []*Param{c.Weight, c.Bias}
}

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != c.InC {
		panic(fmt.Sprintf("nn: %s expects [C=%d,H,W] input shape, got %v", c.LayerName, c.InC, in))
	}
	oh := tensor.ConvOut(in[1], c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOut(in[2], c.KW, c.Stride, c.Pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: %s output collapses for input %v", c.LayerName, in))
	}
	return []int{c.OutC, oh, ow}
}

// chunkSamples returns how many whole samples, of perSample lowered floats
// each, are lowered at once on the train or eval datapath: as many as fit
// the column budget, at least one, at most the batch.
func chunkSamples(n, perSample int, train bool) int {
	budget := colBudget
	if train {
		budget = trainColBudget
	}
	return min(max(budget/perSample, 1), n)
}

// lowering is the geometry of one im2col: a c×h×w image under a kh×kw
// kernel. A convolution lowers its input, a deconvolution its output
// gradient (deconv.go); both build the same chunk-wide matrix.
type lowering struct{ c, h, w, kh, kw, stride, pad int }

func (c *Conv2D) lowering(h, w int) lowering {
	return lowering{c.InC, h, w, c.KH, c.KW, c.Stride, c.Pad}
}

// lower fills col with the K×(m·cols) lowering of samples [s0, s0+m) of
// the NCHW batch x, cols columns each — sample i at column offset i·cols —
// and returns it.
func (g lowering) lower(col, x []float32, s0, m, cols int) []float32 {
	col = col[:g.c*g.kh*g.kw*m*cols]
	inStride := g.c * g.h * g.w
	for i := 0; i < m; i++ {
		img := x[(s0+i)*inStride : (s0+i+1)*inStride]
		tensor.Im2colInto(img, g.c, g.h, g.w, g.kh, g.kw, g.stride, g.pad, col, m*cols, i*cols)
	}
	return col
}

// toChannelMajor gathers samples [s0, s0+m) of the NCHW batch src — ch
// channels of cols floats per sample — into the ch×(m·cols) matrix dst,
// sample i at column offset i·cols: the GEMM operand that lines up with a
// chunk's lowering.
func toChannelMajor(dst, src []float32, ch, cols, s0, m int) {
	mcols := m * cols
	for i := 0; i < m; i++ {
		s := src[(s0+i)*ch*cols : (s0+i+1)*ch*cols]
		for f := 0; f < ch; f++ {
			copy(dst[f*mcols+i*cols:f*mcols+(i+1)*cols], s[f*cols:(f+1)*cols])
		}
	}
}

// fromChannelMajor scatters the ch×(m·cols) GEMM product ge back to samples
// [s0, s0+m) of the NCHW batch y, adding bias[f] to channel f on the way; a
// nil bias, or a zero one, makes it a copy.
func fromChannelMajor(y, ge, bias []float32, ch, cols, s0, m int) {
	mcols := m * cols
	for i := 0; i < m; i++ {
		dst := y[(s0+i)*ch*cols : (s0+i+1)*ch*cols]
		for f := 0; f < ch; f++ {
			src := ge[f*mcols+i*cols : f*mcols+(i+1)*cols]
			d := dst[f*cols : (f+1)*cols]
			var b float32
			if bias != nil {
				b = bias[f]
			}
			if b == 0 {
				copy(d, src)
			} else {
				for j, v := range src {
					d[j] = v + b
				}
			}
		}
	}
}

// Reserve implements Layer.
func (c *Conv2D) Reserve(st *PlanState, a *tensor.Arena, n int, in []int, train bool) {
	out := c.OutShape(in)
	oh, ow := out[1], out[2]
	k := c.InC * c.KH * c.KW
	cols := oh * ow
	chunk := chunkSamples(n, k*cols, train)
	st.Col = scratch(a, st.Col, k*chunk*cols)
	st.Eval = scratch(a, st.Eval, c.OutC*chunk*cols)
}

// ForwardInto implements Layer. It lowers a chunk of samples into
// one wide K×(m·cols) matrix — sample i at column offset i·cols — multiplies
// the chunk in a single GEMM, and scatters the channel-major product back
// to NCHW with the bias folded into that copy. Each output element is the
// same k-ascending chain of single-rounded multiply-adds plus one bias add
// whatever the chunk size, so the result does not depend on the budget, the
// batch, or the mode.
//
// A train-mode pass keeps x, and when the whole batch fit one chunk it also
// keeps the lowering (st.Lowered) so backward does not build it again.
func (c *Conv2D) ForwardInto(st *PlanState, y, x *tensor.Tensor, train bool) {
	if x.Rank() != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: %s got input shape %v, want [N,%d,H,W]", c.LayerName, x.Shape, c.InC))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh := tensor.ConvOut(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOut(w, c.KW, c.Stride, c.Pad)
	k := c.InC * c.KH * c.KW
	cols := oh * ow
	chunk := chunkSamples(n, k*cols, train)
	st.Col = scratch(nil, st.Col, k*chunk*cols)
	st.Eval = scratch(nil, st.Eval, c.OutC*chunk*cols)
	g := c.lowering(h, w)
	for s0 := 0; s0 < n; s0 += chunk {
		m := min(chunk, n-s0)
		mcols := m * cols
		col := g.lower(st.Col, x.Data, s0, m, cols)
		ge := st.Eval[:c.OutC*mcols]
		tensor.Gemm(false, false, c.OutC, mcols, k, 1, c.Weight.W.Data, col, 0, ge)
		fromChannelMajor(y.Data, ge, c.bias(), c.OutC, cols, s0, m)
	}
	if train {
		st.X = x
		st.Lowered = chunk == n
	} else {
		st.X = nil
		st.Lowered = false
	}
}

// bias returns the bias vector, nil for a layer without one.
func (c *Conv2D) bias() []float32 {
	if c.noBias {
		return nil
	}
	return c.Bias.W.Data
}

// BackwardInto implements Layer. Per chunk of samples (the forward's
// chunking): the weight gradient accumulates one sample at a time, in
// sample order, each element one sdot over that sample's columns — that
// order is the training trajectory's fingerprint, so it is kept even
// though the columns now sit side by side in one matrix. The data gradient
// is one Wᵀ·dy GEMM over the whole chunk followed by a col2im per sample.
//
// The lowering comes from the forward pass when the batch fit the column
// budget and is rebuilt chunk by chunk otherwise (caching it for a whole
// paper-scale batch would cost N·K·OH·OW floats — hundreds of MB — the same
// flops-for-memory trade Caffe makes). Once a chunk's weight gradient is
// done its lowering is dead, so the data-gradient GEMM overwrites it
// instead of owning a second matrix of that size.
func (c *Conv2D) BackwardInto(st *PlanState, dx, dout *tensor.Tensor) {
	x := st.X
	if x == nil {
		panic("nn: " + c.LayerName + " Backward before Forward")
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh := tensor.ConvOut(h, c.KH, c.Stride, c.Pad)
	ow := tensor.ConvOut(w, c.KW, c.Stride, c.Pad)
	k := c.InC * c.KH * c.KW
	cols := oh * ow
	chunk := n // a kept lowering holds the whole batch
	if !st.Lowered {
		chunk = chunkSamples(n, k*cols, true)
	}
	if dx != nil {
		clear(dx.Data)
	}
	inStride := c.InC * h * w
	outStride := c.OutC * cols
	g := c.lowering(h, w)
	for s0 := 0; s0 < n; s0 += chunk {
		m := min(chunk, n-s0)
		mcols := m * cols
		col := st.Col[:k*mcols]
		if !st.Lowered {
			col = g.lower(st.Col, x.Data, s0, m, cols)
		}
		for i := 0; i < m; i++ {
			dy := dout.Data[(s0+i)*outStride : (s0+i+1)*outStride]
			// dW += dy · colᵀ over sample i's columns
			tensor.GemmNTAcc(c.OutC, k, cols, dy, cols, col[i*cols:], mcols, c.Weight.Grad.Data)
			if !c.noBias {
				tensor.RowSums(c.Bias.Grad.Data, dy, c.OutC, cols)
			}
		}
		if dx == nil {
			continue
		}
		// dx = col2im(Wᵀ · dy), dy gathered channel-major to match col.
		dyT := st.Eval[:c.OutC*mcols]
		toChannelMajor(dyT, dout.Data, c.OutC, cols, s0, m)
		st.Lowered = false
		tensor.Gemm(true, false, k, mcols, c.OutC, 1, c.Weight.W.Data, dyT, 0, col)
		for i := 0; i < m; i++ {
			tensor.Col2imFrom(col, mcols, i*cols, c.InC, h, w, c.KH, c.KW, c.Stride, c.Pad, dx.Data[(s0+i)*inStride:(s0+i+1)*inStride])
		}
	}
}

// FLOPs implements Layer: forward is one M×N×K GEMM per sample; backward is
// two (weight gradient and data gradient), the standard 1:2 fwd:bwd ratio.
func (c *Conv2D) FLOPs(in []int) FlopCount {
	out := c.OutShape(in)
	m := c.OutC
	k := c.InC * c.KH * c.KW
	cols := out[1] * out[2]
	fwd := tensor.GemmFLOPs(m, cols, k)
	// Executed estimate: output channels and spatial columns pad to the
	// SIMD lane width; the reduction dimension pads on the channel factor.
	kPad := padTo(c.InC, lane) * int64(c.KH*c.KW)
	fwdExec := 2 * padTo(m, lane) * padTo(cols, lane) * kPad
	return FlopCount{Fwd: fwd, Bwd: 2 * fwd, FwdExecuted: fwdExec, BwdExecuted: 2 * fwdExec}
}

package nn

import (
	"fmt"

	"deep15pf/internal/tensor"
)

// Conv2D is a 2-D convolution, the same computation as the MKL 2017
// direct-convolution primitives the paper builds on. Weights are stored
// [OutC, InC·KH·KW] so the forward pass of every output channel is one row
// of the GEMM a lowering would run. Nothing lowers: every convolution, in
// every plan and under ForwardInto and BackwardInto, is a direct step
// (halo.go) that reads the B rows of that GEMM out of a padded image in
// place — split into its stride² phase planes when it is strided — forward
// and for the weight gradient, and takes the input gradient as the
// forward's adjoint. Each output element keeps the lowered path's chain, so
// the steps are bitwise what im2col, GEMM and col2im give (the tests hold
// them to that lowering).
type Conv2D struct {
	LayerName    string
	InC, OutC    int
	KH, KW       int
	Stride, Pad  int
	Weight, Bias *Param
	noBias       bool
}

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

// Reserve implements Layer. A plan runs a convolution as its own direct
// step; ForwardInto builds one into st on first use.
func (c *Conv2D) Reserve(st *PlanState, n int, in []int, train bool) {}

// step returns st's direct step for c over n samples of shape in, building
// it unless st already holds one that fits.
func (c *Conv2D) step(st *PlanState, n int, in []int, train bool) *haloConv {
	hc := st.conv
	if hc == nil || hc.conv != c || hc.inC != in[0] || hc.h != in[1] || hc.w != in[2] ||
		len(hc.images) < n*hc.img || (train && hc.adjGroup == 0) {
		hc = newHaloConv(c, in)
		hc.limit(n)
		var l layout
		l.pin(&hc.images, n*hc.img)
		l.pin(&st.cb, hc.blockLen())
		if train {
			hc.reserve(&l, n, 1)
		}
		l.place(tensor.NewArena())
		st.conv = hc
	}
	return hc
}

// ForwardInto implements Layer: the direct step over x. A train-mode pass
// keeps the step's images for backward.
func (c *Conv2D) ForwardInto(st *PlanState, y, x *tensor.Tensor, train bool) {
	if x.Rank() != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: %s got input shape %v, want [N,%d,H,W]", c.LayerName, x.Shape, c.InC))
	}
	n := x.Shape[0]
	c.step(st, n, x.Shape[1:], train).forward(y, x, n, st.cb)
	st.X = nil
	if train {
		st.X = x
	}
}

// bias returns the bias vector, nil for a layer without one.
func (c *Conv2D) bias() []float32 {
	if c.noBias {
		return nil
	}
	return c.Bias.W.Data
}

// BackwardInto implements Layer: the direct step's backward over the
// images the last train-mode forward kept — the weight gradient read out
// of them, the input gradient as the forward's adjoint.
func (c *Conv2D) BackwardInto(st *PlanState, dx, dout *tensor.Tensor) {
	if st.X == nil {
		panic("nn: " + c.LayerName + " Backward before Forward")
	}
	st.conv.backward(dx, dout, nil, st.X.Shape[0])
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

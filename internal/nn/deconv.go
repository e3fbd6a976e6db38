package nn

import (
	"fmt"

	"deep15pf/internal/tensor"
)

// Deconv2D is a transposed convolution ("deconvolution"). The paper's §III-C
// notes that MKL 2017 had no optimized deconvolution, so they implemented it
// with the observation that *the convolution backward pass computes the
// deconvolution forward pass and vice versa*. We do exactly that:
//
//   - deconv forward(x)  = conv backward-data applied to x  (GEMM + col2im)
//   - deconv backward(dy) = conv forward applied to dy       (im2col + GEMM)
//   - deconv weight grad  = conv weight grad with the roles of input and
//     output swapped.
//
// Weights are stored [InC, OutC·KH·KW] — i.e. as the weights of the adjoint
// convolution that maps the deconvolution's *output* back to its *input*.
// The output spatial size is (H-1)·Stride + K − 2·Pad, the unique size whose
// convolution with the same geometry returns H.
type Deconv2D struct {
	LayerName    string
	InC, OutC    int
	KH, KW       int
	Stride, Pad  int
	Weight, Bias *Param
}

// NewDeconv2D constructs a transposed-convolution layer.
func NewDeconv2D(name string, inC, outC, k, stride, pad int, rng *tensor.RNG) *Deconv2D {
	d := &Deconv2D{
		LayerName: name,
		InC:       inC, OutC: outC,
		KH: k, KW: k,
		Stride: stride, Pad: pad,
	}
	d.Weight = &Param{
		Name: name + ".weight",
		W:    tensor.New(inC, outC*k*k),
		Grad: tensor.New(inC, outC*k*k),
	}
	d.Bias = &Param{
		Name: name + ".bias",
		W:    tensor.New(outC),
		Grad: tensor.New(outC),
	}
	HeInit(d.Weight.W, outC*k*k, rng)
	return d
}

// Name implements Layer.
func (d *Deconv2D) Name() string { return d.LayerName }

// Params implements Layer.
func (d *Deconv2D) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// outHW returns the upsampled spatial size for an input spatial size.
func (d *Deconv2D) outHW(h, w int) (int, int) {
	return (h-1)*d.Stride + d.KH - 2*d.Pad, (w-1)*d.Stride + d.KW - 2*d.Pad
}

// OutShape implements Layer.
func (d *Deconv2D) OutShape(in []int) []int {
	if len(in) != 3 || in[0] != d.InC {
		panic(fmt.Sprintf("nn: %s expects [C=%d,H,W] input shape, got %v", d.LayerName, d.InC, in))
	}
	oh, ow := d.outHW(in[1], in[2])
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("nn: %s output collapses for input %v", d.LayerName, in))
	}
	return []int{d.OutC, oh, ow}
}

// lowering returns the adjoint convolution's im2col: the one that lowers
// this layer's oh×ow output (gradient) to one column per input position.
func (d *Deconv2D) lowering(oh, ow int) lowering {
	return lowering{d.OutC, oh, ow, d.KH, d.KW, d.Stride, d.Pad}
}

// Reserve implements Layer. Like a convolution, both passes work on a chunk
// of whole samples under the column budget (conv.go): Col is the chunk-wide
// (OutC·KH·KW)×(m·H·W) matrix — Wᵀ·x before col2im in forward, im2col of dy
// in backward, the same shape by the adjoint construction — and Eval the
// InC×(m·H·W) channel-major operand on the other side of the GEMM, x in
// forward and dx in backward.
func (d *Deconv2D) Reserve(st *PlanState, a *tensor.Arena, n int, in []int, train bool) {
	k := d.OutC * d.KH * d.KW
	cols := in[1] * in[2]
	chunk := chunkSamples(n, k*cols, train)
	st.Col = scratch(a, st.Col, k*chunk*cols)
	st.Eval = scratch(a, st.Eval, d.InC*chunk*cols)
}

// ForwardInto implements Layer: y = col2im(Wᵀ·x) + b — the conv
// backward-data path. A chunk of samples is gathered channel-major and
// multiplied in one GEMM (the decoder's planes are 16 to 256 positions, too
// narrow to fill a GEMM tile one sample at a time); each sample's columns
// then scatter out of the wide product. Every product element is the same
// chain over InC whatever the chunk, and every output element collects its
// taps in col2im's order from a cleared +0 and takes the bias last.
func (d *Deconv2D) ForwardInto(st *PlanState, y, x *tensor.Tensor, train bool) {
	if x.Rank() != 4 || x.Shape[1] != d.InC {
		panic(fmt.Sprintf("nn: %s got input shape %v, want [N,%d,H,W]", d.LayerName, x.Shape, d.InC))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	k := d.OutC * d.KH * d.KW
	cols := h * w // the adjoint conv's output positions = our input positions
	chunk := chunkSamples(n, k*cols, train)
	st.Col = scratch(nil, st.Col, k*chunk*cols)
	st.Eval = scratch(nil, st.Eval, d.InC*chunk*cols)
	for s0 := 0; s0 < n; s0 += chunk {
		m := min(chunk, n-s0)
		mcols := m * cols
		xT := st.Eval[:d.InC*mcols]
		toChannelMajor(xT, x.Data, d.InC, cols, s0, m)
		col := st.Col[:k*mcols]
		tensor.Gemm(true, false, k, mcols, d.InC, 1, d.Weight.W.Data, xT, 0, col)
		d.scatter(y, col, h, w, s0, m)
	}
	if train {
		st.X = x
	} else {
		st.X = nil
	}
}

// scatter is the NCHW scatter of the m-sample chunk starting at s0: each
// sample's columns of the product col accumulate into its cleared planes of
// y through col2im, and the bias goes on top.
func (d *Deconv2D) scatter(y *tensor.Tensor, col []float32, h, w, s0, m int) {
	oh, ow := d.outHW(h, w)
	cols, plane := h*w, oh*ow
	for i := 0; i < m; i++ {
		ys := y.Data[(s0+i)*d.OutC*plane : (s0+i+1)*d.OutC*plane]
		clear(ys)
		tensor.Col2imFrom(col, m*cols, i*cols, d.OutC, oh, ow, d.KH, d.KW, d.Stride, d.Pad, ys)
		for f, b := range d.Bias.W.Data {
			if b == 0 {
				continue
			}
			row := ys[f*plane : (f+1)*plane]
			for j := range row {
				row[j] += b
			}
		}
	}
}

// BackwardInto implements Layer: dx = W·im2col(dy) — the conv forward path
// — and dW = x·im2col(dy)ᵀ. Per chunk, dy is lowered into one wide matrix;
// dW (one tensor.WeightGrad over the chunk) and db accumulate one sample
// at a time, in sample order, out of that sample's columns (that order is
// the training trajectory's fingerprint); dx is one GEMM over the chunk,
// scattered back to NCHW.
func (d *Deconv2D) BackwardInto(st *PlanState, dx, dout *tensor.Tensor) {
	x := st.X
	if x == nil {
		panic("nn: " + d.LayerName + " Backward before Forward")
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := d.outHW(h, w)
	k := d.OutC * d.KH * d.KW
	cols := h * w
	chunk := chunkSamples(n, k*cols, true)
	g := d.lowering(oh, ow)
	inStride := d.InC * cols
	outStride := d.OutC * oh * ow
	for s0 := 0; s0 < n; s0 += chunk {
		m := min(chunk, n-s0)
		mcols := m * cols
		col := g.lower(st.Col, dout.Data, s0, m, cols)
		// dW += x_i (InC×cols) · col_iᵀ for each sample i of the chunk, in order
		tensor.WeightGrad(d.InC, k, cols, m, x.Data[s0*inStride:], cols, inStride, col, mcols, cols, nil, 0, 0, d.Weight.Grad.Data, k)
		for i := 0; i < m; i++ {
			tensor.RowSums(d.Bias.Grad.Data, dout.Data[(s0+i)*outStride:(s0+i+1)*outStride], d.OutC, oh*ow)
		}
		if dx == nil {
			continue
		}
		// dx = W (InC×k) · col (k×m·cols), channel-major
		ge := st.Eval[:d.InC*mcols]
		tensor.Gemm(false, false, d.InC, mcols, k, 1, d.Weight.W.Data, col, 0, ge)
		fromChannelMajor(dx.Data, ge, nil, d.InC, cols, s0, m)
	}
}

// FLOPs implements Layer. The paper observes these layers "perform very
// similarly to the corresponding convolution layers" — and indeed the counts
// are the mirrored conv counts.
func (d *Deconv2D) FLOPs(in []int) FlopCount {
	k := d.OutC * d.KH * d.KW
	cols := in[1] * in[2]
	fwd := tensor.GemmFLOPs(k, cols, d.InC)
	kPad := padTo(d.OutC, lane) * int64(d.KH*d.KW)
	fwdExec := 2 * kPad * padTo(cols, lane) * padTo(d.InC, lane)
	return FlopCount{Fwd: fwd, Bwd: 2 * fwd, FwdExecuted: fwdExec, BwdExecuted: 2 * fwdExec}
}

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

// Reserve implements Layer. The lowering scratch is shared by
// forward (Wᵀ·x before col2im) and backward (im2col of dy), which have the
// same (OutC·KH·KW)×(H·W) shape by the adjoint construction.
func (d *Deconv2D) Reserve(st *PlanState, a *tensor.Arena, n int, in []int, train bool) {
	k := d.OutC * d.KH * d.KW
	cols := in[1] * in[2]
	st.Col = scratch(a, st.Col, k*cols)
}

// ForwardInto implements Layer: y = col2im(Wᵀ·x) — the conv backward-data
// path.
func (d *Deconv2D) ForwardInto(st *PlanState, y, x *tensor.Tensor, train bool) {
	if x.Rank() != 4 || x.Shape[1] != d.InC {
		panic(fmt.Sprintf("nn: %s got input shape %v, want [N,%d,H,W]", d.LayerName, x.Shape, d.InC))
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := d.outHW(h, w)
	k := d.OutC * d.KH * d.KW
	cols := h * w // the adjoint conv's output positions = our input positions
	st.Col = scratch(nil, st.Col, k*cols)
	col := st.Col[:k*cols]
	clear(y.Data) // col2im accumulates
	inStride := d.InC * h * w
	outStride := d.OutC * oh * ow
	for s := 0; s < n; s++ {
		xs := x.Data[s*inStride : (s+1)*inStride]
		// col = Wᵀ (k×InC) · x_s (InC×cols)
		tensor.Gemm(true, false, k, cols, d.InC, 1, d.Weight.W.Data, xs, 0, col)
		ys := y.Data[s*outStride : (s+1)*outStride]
		tensor.Col2im(col, d.OutC, oh, ow, d.KH, d.KW, d.Stride, d.Pad, ys)
		for f := 0; f < d.OutC; f++ {
			b := d.Bias.W.Data[f]
			if b == 0 {
				continue
			}
			row := ys[f*oh*ow : (f+1)*oh*ow]
			for i := range row {
				row[i] += b
			}
		}
	}
	if train {
		st.X = x
	} else {
		st.X = nil
	}
}

// BackwardInto implements Layer: dx = W·im2col(dy) — the conv forward path
// — and dW = x·im2col(dy)ᵀ.
func (d *Deconv2D) BackwardInto(st *PlanState, dx, dout *tensor.Tensor) {
	x := st.X
	if x == nil {
		panic("nn: " + d.LayerName + " Backward before Forward")
	}
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := d.outHW(h, w)
	k := d.OutC * d.KH * d.KW
	cols := h * w
	col := st.Col[:k*cols]
	inStride := d.InC * h * w
	outStride := d.OutC * oh * ow
	for s := 0; s < n; s++ {
		dy := dout.Data[s*outStride : (s+1)*outStride]
		tensor.Im2col(dy, d.OutC, oh, ow, d.KH, d.KW, d.Stride, d.Pad, col)
		// dx_s = W (InC×k) · col (k×cols)
		if dx != nil {
			tensor.Gemm(false, false, d.InC, cols, k, 1, d.Weight.W.Data, col, 0, dx.Data[s*inStride:(s+1)*inStride])
		}
		// dW += x_s (InC×cols) · colᵀ (cols×k)
		xs := x.Data[s*inStride : (s+1)*inStride]
		tensor.Gemm(false, true, d.InC, k, cols, 1, xs, col, 1, d.Weight.Grad.Data)
		// db += per-channel sums of dy
		for f := 0; f < d.OutC; f++ {
			row := dy[f*oh*ow : (f+1)*oh*ow]
			var sum float32
			for _, v := range row {
				sum += v
			}
			d.Bias.Grad.Data[f] += sum
		}
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

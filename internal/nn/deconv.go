package nn

import (
	"fmt"

	"deep15pf/internal/tensor"
)

// Deconv2D is a transposed convolution ("deconvolution"). The paper's §III-C
// notes that MKL 2017 had no optimized deconvolution, so they implemented it
// with the observation that *the convolution backward pass computes the
// deconvolution forward pass and vice versa*. We do exactly that, with the
// convolution's direct step (halo.go) standing for MKL's primitives:
//
//   - deconv forward(x)  = conv backward-data applied to x: the strided
//     adjoint, tensor.ConvAdjoint, with the bias (and a following ReLU)
//     applied by the pass that writes y out of its phase planes;
//   - deconv backward(dy) = conv forward applied to dy: tensor.ConvTile over
//     dy split into phase planes;
//   - deconv weight grad  = conv weight grad with the roles of input and
//     output swapped: tensor.WeightGrad with A = x and B read out of dy's
//     phase planes.
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

// deconvStep is a Deconv2D run as the adjoint of its own convolution:
// adj is that convolution's direct step — OutC input channels of the
// output plane, InC output channels of the input plane, our weights, no
// bias — whose adjoint is our forward and whose forward is our input
// gradient. Every output element collects its taps in col2im's order from
// a cleared +0 and takes the bias last, and every input-gradient and
// weight-gradient element is the lowered path's chain or dot, so the step
// is bitwise col2im(Wᵀ·x) + b and its lowered backward.
type deconvStep struct {
	d        *Deconv2D
	adj      *haloConv
	relu     bool      // the following ReLU, folded into the pass that writes y
	h, w     int       // input plane
	capacity int       // samples reserved for
	group    int       // samples a forward call takes side by side
	xG       []float32 // group > 1: the group's inputs, channel-major
	dy       []float32 // training under relu: one sample's gated output gradient
	x        []float32 // training: the last forward's input, read by the weight gradient
}

// deconvGroupFloats bounds the samples one forward call takes side by side
// when their windows are whole: as many as the lowered path's chunk, whose
// Wᵀ·x matrix it held to 128K floats and whose GEMM split across the
// workers from gemmParallelMin multiply-adds, as the adjoint now does.
const deconvGroupFloats = 1 << 17

func newDeconvStep(d *Deconv2D, in []int) *deconvStep {
	oh, ow := d.outHW(in[1], in[2])
	c := &Conv2D{LayerName: d.LayerName, InC: d.OutC, OutC: d.InC, KH: d.KH, KW: d.KW,
		Stride: d.Stride, Pad: d.Pad, Weight: d.Weight, noBias: true}
	return &deconvStep{d: d, adj: newHaloConv(c, []int{d.OutC, oh, ow}), h: in[1], w: in[2]}
}

// reserve draws the step's state for up to n samples from a: the
// forward's group buffers and, for training, dy's images.
func (ds *deconvStep) reserve(a *tensor.Arena, n int, train bool) {
	d, adj := ds.d, ds.adj
	adj.limit(n)
	ds.capacity = n
	ds.group = 1
	if s := d.Stride; ds.h == (adj.h+s-1)/s && ds.w == (adj.w+s-1)/s { // whole windows
		ds.group = min(n, max(deconvGroupFloats/(len(adj.off)*ds.h*ds.w), 1))
	}
	if ds.group > 1 {
		ds.xG = a.Get(d.InC * ds.group * ds.h * ds.w)
	}
	adj.dxG = a.Get(ds.group * adj.phaseLen())
	if train {
		adj.images = a.Get(n * adj.img)
		if ds.relu {
			ds.dy = a.Get(d.OutC * adj.h * adj.w)
		}
	}
}

// forward runs n samples of the NCHW input x into the NCHW output y.
func (ds *deconvStep) forward(y, x *tensor.Tensor, n int, train bool) {
	d := ds.d
	cols := ds.h * ds.w
	inPer, outPer := d.InC*cols, d.OutC*ds.adj.h*ds.adj.w
	for s0 := 0; s0 < n; s0 += ds.group {
		m := min(ds.group, n-s0)
		xg := x.Data[s0*inPer:][:inPer]
		if m > 1 {
			xg = ds.xG[:d.InC*m*cols]
			for i := 0; i < m; i++ {
				for ch := 0; ch < d.InC; ch++ {
					copy(xg[(ch*m+i)*cols:][:cols], x.Data[(s0+i)*inPer+ch*cols:][:cols])
				}
			}
		}
		ds.adj.adjoint(y.Data[s0*outPer:][:m*outPer], d.Weight.W.Data, d.InC, xg, m, d.Bias.W.Data, ds.relu)
	}
	ds.x = nil
	if train {
		ds.x = x.Data[:n*inPer]
	}
}

// backward is BackwardInto over the m samples of the last forward: g is
// the gradient at y, the output that forward wrote. Per sample it gates g
// through a folded ReLU, accumulates the bias gradient in sample order
// and splits the result into dy's image; then one tensor.WeightGrad over
// all m takes dW, and the adjoint convolution's forward over the images —
// into dx, through the C block cb — the input gradient (dx == nil skips
// it).
func (ds *deconvStep) backward(dx, g, y *tensor.Tensor, m int, cb []float32) {
	d, adj := ds.d, ds.adj
	plane, cols := adj.h*adj.w, ds.h*ds.w
	outPer := d.OutC * plane
	for s := 0; s < m; s++ {
		dy := g.Data[s*outPer:][:outPer]
		if ds.relu {
			tensor.ConvUnpool(ds.dy, dy, nil, y.Data[s*outPer:][:outPer], d.OutC, adj.h, adj.w, plane, adj.w, true)
			dy = ds.dy
		}
		tensor.RowSums(d.Bias.Grad.Data, dy, d.OutC, plane)
		adj.fill(adj.images[s*adj.img:][:adj.img], dy)
	}
	k := len(adj.off)
	tensor.WeightGrad(d.InC, 0, cols, m, ds.x, cols, d.InC*cols, adj.images[:m*adj.img], 0, adj.img, adj.off, ds.w, adj.pitch, d.Weight.Grad.Data, k)
	if dx == nil {
		return
	}
	step := max(adj.group, 1)
	for s0 := 0; s0 < m; s0 += step {
		adj.tile(dx, s0, min(step, m-s0), cb)
	}
}

// Reserve implements Layer. A plan runs a deconvolution as its own direct
// step; ForwardInto builds one into st on first use.
func (d *Deconv2D) Reserve(st *PlanState, a *tensor.Arena, n int, in []int, train bool) {}

// step returns st's step for d over n samples of shape in, building it
// unless st already holds one that fits.
func (d *Deconv2D) step(st *PlanState, n int, in []int, train bool) *deconvStep {
	ds := st.deconv
	if ds == nil || ds.d != d || ds.h != in[1] || ds.w != in[2] || ds.capacity < n || (train && ds.adj.images == nil) {
		ds = newDeconvStep(d, in)
		ds.reserve(tensor.NewArena(), n, train)
		st.deconv, st.cb = ds, make([]float32, ds.adj.blockLen())
	}
	return ds
}

// ForwardInto implements Layer: y = col2im(Wᵀ·x) + b, the conv
// backward-data path, as the strided adjoint (deconvStep).
func (d *Deconv2D) ForwardInto(st *PlanState, y, x *tensor.Tensor, train bool) {
	if x.Rank() != 4 || x.Shape[1] != d.InC {
		panic(fmt.Sprintf("nn: %s got input shape %v, want [N,%d,H,W]", d.LayerName, x.Shape, d.InC))
	}
	n := x.Shape[0]
	d.step(st, n, x.Shape[1:], train).forward(y, x, n, train)
	st.X = nil
	if train {
		st.X = x
	}
}

// BackwardInto implements Layer: dx = W·im2col(dy) — the conv forward path
// — and dW = x·im2col(dy)ᵀ, both read out of dy's phase planes
// (deconvStep).
func (d *Deconv2D) BackwardInto(st *PlanState, dx, dout *tensor.Tensor) {
	if st.X == nil {
		panic("nn: " + d.LayerName + " Backward before Forward")
	}
	st.deconv.backward(dx, dout, nil, st.X.Shape[0], st.cb)
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

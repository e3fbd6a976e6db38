package climate

import (
	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

// refStack runs layers without a plan, layer by layer into fresh tensors:
// each convolution and deconvolution as the per-sample lowering (im2col,
// GEMM, col2im; below), every other layer's ForwardInto and BackwardInto
// under its own fresh state.
type refStack struct {
	layers []nn.Layer
	st     []nn.PlanState
	xs     []*tensor.Tensor // xs[i] is layer i's input in the last forward
}

func stackOf(layers ...nn.Layer) *refStack {
	return &refStack{layers: layers, st: make([]nn.PlanState, len(layers)), xs: make([]*tensor.Tensor, len(layers))}
}

func (r *refStack) forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for i, l := range r.layers {
		y := tensor.New(append([]int{x.Shape[0]}, l.OutShape(x.Shape[1:])...)...)
		switch l := l.(type) {
		case *nn.Conv2D:
			loweredConv(l.InC, l.OutC, l.KH, l.Stride, l.Pad, x, y, l.Weight.W.Data, l.Bias.W.Data)
		case *nn.Deconv2D:
			// The deconvolution's forward is the data gradient of the
			// convolution it is the adjoint of: y is that one's input.
			clear(y.Data)
			loweredConvGrad(l.OutC, l.InC, l.KH, l.Stride, l.Pad, y, x, l.Weight.W.Data)
			addBias(y, l.Bias.W.Data)
		default:
			l.ForwardInto(&r.st[i], y, x, train)
		}
		r.xs[i], x = x, y
	}
	return x
}

func (r *refStack) backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(r.layers) - 1; i >= 0; i-- {
		dx := tensor.New(r.xs[i].Shape...)
		switch l := r.layers[i].(type) {
		case *nn.Conv2D:
			loweredConvGrad(l.InC, l.OutC, l.KH, l.Stride, l.Pad, dx, dout, l.Weight.W.Data)
			loweredWeightGrad(l.InC, l.OutC, l.KH, l.Stride, l.Pad, r.xs[i], dout, l.Weight.Grad.Data)
			rowSums(l.Bias.Grad.Data, dout)
		case *nn.Deconv2D:
			// Its backward is the adjoint convolution's forward over dout.
			loweredConv(l.OutC, l.InC, l.KH, l.Stride, l.Pad, dout, dx, l.Weight.W.Data, nil)
			loweredWeightGrad(l.OutC, l.InC, l.KH, l.Stride, l.Pad, dout, r.xs[i], l.Weight.Grad.Data)
			rowSums(l.Bias.Grad.Data, dout)
		default:
			l.BackwardInto(&r.st[i], dx, dout)
		}
		dout = dx
	}
	return dout
}

// refNet is the branch topology over refStacks: the reference TrainPlan and
// Scorer are held to — slab views, shared arenas and plan caches must not
// change a bit — and what the loss tests differentiate through.
type refNet struct {
	net                        *Net
	enc, conf, class, box, dec *refStack
}

func newRef(n *Net) *refNet {
	r := &refNet{net: n, enc: stackOf(n.Encoder.Layers...),
		conf: stackOf(n.ConfHead), class: stackOf(n.ClassHead), box: stackOf(n.BoxHead)}
	if n.Decoder != nil {
		r.dec = stackOf(n.Decoder.Layers...)
	}
	return r
}

func (r *refNet) Forward(x *tensor.Tensor, train bool) Output {
	feat := r.enc.forward(x, train)
	out := Output{Feat: feat, Conf: r.conf.forward(feat, train), Class: r.class.forward(feat, train), BoxP: r.box.forward(feat, train)}
	if r.dec != nil {
		out.Recon = r.dec.forward(feat, train)
	}
	return out
}

// Backward fans the gradients back in, in TrainPlan's order: heads,
// decoder, encoder.
func (r *refNet) Backward(out Output, g Grads) {
	dfeat := tensor.New(out.Feat.Shape...)
	tensor.Axpy(1, r.conf.backward(g.Conf).Data, dfeat.Data)
	tensor.Axpy(1, r.class.backward(g.Class).Data, dfeat.Data)
	tensor.Axpy(1, r.box.backward(g.BoxP).Data, dfeat.Data)
	if g.Recon != nil {
		tensor.Axpy(1, r.dec.backward(g.Recon).Data, dfeat.Data)
	}
	r.enc.backward(dfeat)
}

func (r *refNet) TrainStep(x *tensor.Tensor, boxes [][]Box, labeled []bool, w LossWeights) LossParts {
	out := r.Forward(x, true)
	parts, grads := r.net.Loss(out, x, boxes, labeled, w)
	r.Backward(out, grads)
	return parts
}

// im2col lowers one c×h×w image for a k×k kernel: row (ch, ky, kx),
// column (oy, ox), +0 where the tap falls in the padding.
func im2col(img []float32, c, h, w, k, stride, pad int) []float32 {
	oh, ow := tensor.ConvOut(h, k, stride, pad), tensor.ConvOut(w, k, stride, pad)
	col := make([]float32, c*k*k*oh*ow)
	i := 0
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						if iy, ix := oy*stride-pad+ky, ox*stride-pad+kx; iy >= 0 && iy < h && ix >= 0 && ix < w {
							col[i] = img[(ch*h+iy)*w+ix]
						}
						i++
					}
				}
			}
		}
	}
	return col
}

// loweredConv is a convolution's lowered forward, one sample at a time:
// y = W·im2col(x), then the bias added where it is not ±0.
func loweredConv(inC, outC, k, stride, pad int, x, y *tensor.Tensor, wt, bias []float32) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	cols := y.Shape[2] * y.Shape[3]
	for s := 0; s < n; s++ {
		col := im2col(x.Data[s*inC*h*w:][:inC*h*w], inC, h, w, k, stride, pad)
		tensor.Gemm(false, false, outC, cols, inC*k*k, 1, wt, col, 0, y.Data[s*outC*cols:][:outC*cols])
	}
	addBias(y, bias)
}

// loweredConvGrad adds to dx a convolution's lowered data gradient, one
// sample at a time: col2im(Wᵀ·dy).
func loweredConvGrad(inC, outC, k, stride, pad int, dx, dy *tensor.Tensor, wt []float32) {
	n, h, w := dx.Shape[0], dx.Shape[2], dx.Shape[3]
	oh, ow := dy.Shape[2], dy.Shape[3]
	cols := oh * ow
	col := make([]float32, inC*k*k*cols)
	for s := 0; s < n; s++ {
		tensor.Gemm(true, false, inC*k*k, cols, outC, 1, wt, dy.Data[s*outC*cols:][:outC*cols], 0, col)
		img := dx.Data[s*inC*h*w:][:inC*h*w]
		i := 0
		for ch := 0; ch < inC; ch++ {
			for ky := 0; ky < k; ky++ {
				for kx := 0; kx < k; kx++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							if iy, ix := oy*stride-pad+ky, ox*stride-pad+kx; iy >= 0 && iy < h && ix >= 0 && ix < w {
								img[(ch*h+iy)*w+ix] += col[i]
							}
							i++
						}
					}
				}
			}
		}
	}
}

// loweredWeightGrad adds a convolution's weight gradient, sample by
// sample: dW += dy·im2col(x)ᵀ. A deconvolution's is its adjoint
// convolution's with x and dy swapped: dW += x·im2col(dy)ᵀ.
func loweredWeightGrad(inC, outC, k, stride, pad int, x, dy *tensor.Tensor, dW []float32) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	cols := dy.Shape[2] * dy.Shape[3]
	for s := 0; s < n; s++ {
		col := im2col(x.Data[s*inC*h*w:][:inC*h*w], inC, h, w, k, stride, pad)
		d := dy.Data[s*outC*cols:][:outC*cols]
		tensor.Gemm(false, true, outC, inC*k*k, cols, 1, d, col, 1, dW)
	}
}

// addBias adds bias[f] to channel f of every sample where it is not ±0.
func addBias(y *tensor.Tensor, bias []float32) {
	if bias == nil {
		return
	}
	n, c := y.Shape[0], y.Shape[1]
	plane := y.Len() / (n * c)
	for s := 0; s < n; s++ {
		for f, b := range bias {
			if b == 0 {
				continue
			}
			for j := range y.Data[(s*c+f)*plane:][:plane] {
				y.Data[(s*c+f)*plane+j] += b
			}
		}
	}
}

// rowSums adds to db[f] each sample's left-to-right sum of channel f of dy.
func rowSums(db []float32, dy *tensor.Tensor) {
	n, c := dy.Shape[0], dy.Shape[1]
	plane := dy.Len() / (n * c)
	for s := 0; s < n; s++ {
		for f := range db {
			var sum float32
			for _, v := range dy.Data[(s*c+f)*plane:][:plane] {
				sum += v
			}
			db[f] += sum
		}
	}
}

package nn

import "deep15pf/internal/tensor"

// refNet runs a network without a plan, layer by layer into fresh
// tensors: each convolution and deconvolution as the per-sample lowering
// (lowering_test.go), every other layer's ForwardInto and BackwardInto
// under its own fresh state. It is what the plan tests compare against —
// the direct steps, slab views, capacity as a ceiling, the shared eval
// state and arena reuse must not change a bit. run drives one layer
// through its own ForwardInto and BackwardInto instead (direct), which is
// how the per-layer tests test it.
type refNet struct {
	net    *Network
	st     []PlanState
	xs     []*tensor.Tensor // xs[i] is layer i's input in the last Forward
	direct bool             // run every layer through its own methods
}

func newRef(net *Network) *refNet {
	return &refNet{net: net, st: make([]PlanState, len(net.Layers)), xs: make([]*tensor.Tensor, len(net.Layers))}
}

// run wraps a single layer.
func run(l Layer) *refNet {
	r := newRef(&Network{Layers: []Layer{l}})
	r.direct = true
	return r
}

func (r *refNet) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for i, l := range r.net.Layers {
		y := tensor.New(append([]int{x.Shape[0]}, l.OutShape(x.Shape[1:])...)...)
		switch l := l.(type) {
		case *Conv2D:
			if !r.direct {
				refConvForward(l, y, x)
				break
			}
			l.ForwardInto(&r.st[i], y, x, train)
		case *Deconv2D:
			if !r.direct {
				refDeconvForward(l, y, x)
				break
			}
			l.ForwardInto(&r.st[i], y, x, train)
		default:
			l.ForwardInto(&r.st[i], y, x, train)
		}
		r.xs[i], x = x, y
	}
	return x
}

// Backward stops where a plan does: at the first trainable layer.
func (r *refNet) Backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(r.net.Layers) - 1; i >= r.net.backwardCut(); i-- {
		dx := tensor.New(r.xs[i].Shape...)
		switch l := r.net.Layers[i].(type) {
		case *Conv2D:
			if !r.direct {
				var db []float32
				if !l.noBias {
					db = l.Bias.Grad.Data
				}
				refConvBackward(l, dx, r.xs[i], dout, l.Weight.Grad.Data, db)
				break
			}
			l.BackwardInto(&r.st[i], dx, dout)
		case *Deconv2D:
			if !r.direct {
				refDeconvBackward(l, dx, r.xs[i], dout, l.Weight.Grad.Data, l.Bias.Grad.Data)
				break
			}
			l.BackwardInto(&r.st[i], dx, dout)
		default:
			l.BackwardInto(&r.st[i], dx, dout)
		}
		dout = dx
	}
	return dout
}

package nn

import "deep15pf/internal/tensor"

// refNet runs a network without a plan: each layer's ForwardInto and
// BackwardInto in turn, under its own fresh state, into fresh tensors. It
// is what the plan tests compare against — slab views, capacity as a
// ceiling, the shared eval state and arena reuse must not change a bit —
// and how the per-layer tests drive one layer.
type refNet struct {
	net *Network
	st  []PlanState
	xs  []*tensor.Tensor // xs[i] is layer i's input in the last Forward
}

func newRef(net *Network) *refNet {
	return &refNet{net: net, st: make([]PlanState, len(net.Layers)), xs: make([]*tensor.Tensor, len(net.Layers))}
}

// run wraps a single layer.
func run(l Layer) *refNet { return newRef(&Network{Layers: []Layer{l}}) }

func (r *refNet) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for i, l := range r.net.Layers {
		y := tensor.New(append([]int{x.Shape[0]}, l.OutShape(x.Shape[1:])...)...)
		l.ForwardInto(&r.st[i], y, x, train)
		r.xs[i], x = x, y
	}
	return x
}

// Backward stops where a plan does: at the first trainable layer.
func (r *refNet) Backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(r.net.Layers) - 1; i >= r.net.backwardCut(); i-- {
		dx := tensor.New(r.xs[i].Shape...)
		r.net.Layers[i].BackwardInto(&r.st[i], dx, dout)
		dout = dx
	}
	return dout
}

package climate

import (
	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

// refStack runs layers without a plan: each ForwardInto and BackwardInto in
// turn, under its own fresh state, into fresh tensors.
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
		l.ForwardInto(&r.st[i], y, x, train)
		r.xs[i], x = x, y
	}
	return x
}

func (r *refStack) backward(dout *tensor.Tensor) *tensor.Tensor {
	for i := len(r.layers) - 1; i >= 0; i-- {
		dx := tensor.New(r.xs[i].Shape...)
		r.layers[i].BackwardInto(&r.st[i], dx, dout)
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

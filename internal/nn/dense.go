package nn

import (
	"fmt"
	"math"

	"deep15pf/internal/tensor"
)

// ReLU is the rectified-linear activation used throughout both paper
// networks.
type ReLU struct {
	LayerName string
}

// NewReLU constructs a ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{LayerName: name} }

// Name implements Layer.
func (r *ReLU) Name() string { return r.LayerName }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) []int { return append([]int(nil), in...) }

// Reserve implements Layer.
func (r *ReLU) Reserve(st *PlanState, n int, in []int, train bool) {}

// ForwardInto implements Layer. Every element of y is written, so a
// recycled destination cannot leak stale activations. Train and eval mode
// run the same kernel; a train-mode pass also remembers y, whose sign is
// what backward gates on.
func (r *ReLU) ForwardInto(st *PlanState, y, x *tensor.Tensor, train bool) {
	st.Y = nil
	if train {
		st.Y = y
	}
	tensor.ReLU(y.Data[:x.Len()], x.Data)
}

// BackwardInto implements Layer: the gradient passes where the saved
// output is positive, which is exactly where the input was.
func (r *ReLU) BackwardInto(st *PlanState, dx, dout *tensor.Tensor) {
	if st.Y == nil || st.Y.Len() != dout.Len() {
		panic("nn: " + r.LayerName + " Backward without matching train-mode Forward")
	}
	if dx == nil {
		return
	}
	tensor.ReLUGrad(dx.Data[:dout.Len()], st.Y.Data, dout.Data)
}

// FLOPs implements Layer.
func (r *ReLU) FLOPs(in []int) FlopCount {
	ops := int64(shapeElems(in))
	return FlopCount{Fwd: ops, Bwd: ops, FwdExecuted: ops, BwdExecuted: ops}
}

// Dense is a fully-connected layer over flattened activations: y = x·Wᵀ + b
// with W stored [Out, In]. The paper deliberately keeps these layers tiny
// (128→2 for HEP) because large dense weights are hostile to scaling.
type Dense struct {
	LayerName    string
	In, Out      int
	Weight, Bias *Param
}

// NewDense constructs a fully-connected layer with He-initialised weights.
func NewDense(name string, in, out int, rng *tensor.RNG) *Dense {
	d := &Dense{LayerName: name, In: in, Out: out}
	d.Weight = &Param{
		Name: name + ".weight",
		W:    tensor.New(out, in),
		Grad: tensor.New(out, in),
	}
	d.Bias = &Param{
		Name: name + ".bias",
		W:    tensor.New(out),
		Grad: tensor.New(out),
	}
	HeInit(d.Weight.W, in, rng)
	return d
}

// Name implements Layer.
func (d *Dense) Name() string { return d.LayerName }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) []int {
	if shapeElems(in) != d.In {
		panic(fmt.Sprintf("nn: %s expects %d input features, got shape %v", d.LayerName, d.In, in))
	}
	return []int{d.Out}
}

// Reserve implements Layer.
func (d *Dense) Reserve(st *PlanState, n int, in []int, train bool) {}

// ForwardInto implements Layer. The GEMM's beta=0 overwrites every
// element of y, so recycled destinations are safe.
func (d *Dense) ForwardInto(st *PlanState, y, x *tensor.Tensor, train bool) {
	n := x.Shape[0]
	if x.Len() != n*d.In {
		panic(fmt.Sprintf("nn: %s got %d elements for batch %d, want %d features per sample", d.LayerName, x.Len(), n, d.In))
	}
	// y (N×Out) = x (N×In) · Wᵀ (In×Out); x is used flat, whatever its
	// nominal shape.
	tensor.Gemm(false, true, n, d.Out, d.In, 1, x.Data, d.Weight.W.Data, 0, y.Data)
	for s := 0; s < n; s++ {
		row := y.Data[s*d.Out : (s+1)*d.Out]
		for j := range row {
			row[j] += d.Bias.W.Data[j]
		}
	}
	if train {
		st.X = x
	} else {
		st.X = nil // inference: keep no backward state alive
	}
}

// BackwardInto implements Layer.
func (d *Dense) BackwardInto(st *PlanState, dx, dout *tensor.Tensor) {
	x := st.X
	if x == nil {
		panic("nn: " + d.LayerName + " Backward before Forward")
	}
	n := x.Shape[0]
	// dW (Out×In) += doutᵀ (Out×N) · x (N×In)
	tensor.Gemm(true, false, d.Out, d.In, n, 1, dout.Data, x.Data, 1, d.Weight.Grad.Data)
	// db += column sums of dout
	for s := 0; s < n; s++ {
		row := dout.Data[s*d.Out : (s+1)*d.Out]
		for j := range row {
			d.Bias.Grad.Data[j] += row[j]
		}
	}
	// dx (N×In) = dout (N×Out) · W (Out×In)
	if dx != nil {
		tensor.Gemm(false, false, n, d.In, d.Out, 1, dout.Data, d.Weight.W.Data, 0, dx.Data)
	}
}

// FLOPs implements Layer.
func (d *Dense) FLOPs(in []int) FlopCount {
	fwd := tensor.GemmFLOPs(1, d.Out, d.In)
	fwdExec := 2 * padTo(d.Out, lane) * padTo(d.In, lane)
	return FlopCount{Fwd: fwd, Bwd: 2 * fwd, FwdExecuted: fwdExec, BwdExecuted: 2 * fwdExec}
}

// HeInit fills w with He-normal draws: N(0, 2/fanIn), the standard init for
// ReLU networks (He et al., cited as [34] in the paper).
func HeInit(w *tensor.Tensor, fanIn int, rng *tensor.RNG) {
	if fanIn <= 0 {
		panic("nn: HeInit with non-positive fanIn")
	}
	rng.FillNorm(w, 0, math.Sqrt(2/float64(fanIn)))
}

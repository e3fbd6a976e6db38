package nn

import (
	"fmt"
	"strings"

	"deep15pf/internal/tensor"
)

// Network is a sequential stack of layers with a fixed per-sample input
// shape. It holds no execution state and runs nothing itself — Compile and
// CompileQuantized turn it into a plan that does. What it provides is the
// accounting surface the rest of the system builds on: parameter
// enumeration for solvers and parameter servers, and per-layer FLOP counts
// for the performance model.
type Network struct {
	NetName string
	InShape []int // per-sample, e.g. [3,224,224]
	Layers  []Layer

	// frozen marks layers excluded from training (see Freeze). Frozen
	// layers keep their weights but own no gradient accumulators, are
	// excluded from TrainableLayers, and are skipped entirely by the
	// backward pass.
	frozen map[Layer]bool
}

// NewNetwork creates an empty network for the given per-sample input shape.
func NewNetwork(name string, inShape ...int) *Network {
	return &Network{NetName: name, InShape: append([]int(nil), inShape...)}
}

// Add appends layers, validating shape compatibility eagerly so
// configuration errors surface at construction, not mid-training.
func (n *Network) Add(layers ...Layer) *Network {
	for _, l := range layers {
		shape := n.OutShape()
		l.OutShape(shape) // panics on incompatibility
		n.Layers = append(n.Layers, l)
	}
	return n
}

// OutShape returns the per-sample output shape of the current stack.
func (n *Network) OutShape() []int {
	shape := n.InShape
	for _, l := range n.Layers {
		shape = l.OutShape(shape)
	}
	return shape
}

// ReleaseGradients frees every parameter's gradient accumulator, halving an
// inference replica's parameter memory. The network can no longer be
// trained, while ZeroGrad and ScaleGrad become no-ops for released
// parameters.
//
// Interaction with compiled plans: an inference plan (Compile with
// train=false) holds no gradient or backward buffers, so it compiles and
// runs on a released network — this is the serving configuration. Compiling
// a *training* plan over a released network panics at Compile time, and a
// training plan whose network is released mid-flight panics at the next
// Backward with the offending parameter's name, rather than dereferencing
// a nil gradient deep inside a kernel.
func (n *Network) ReleaseGradients() {
	ReleaseGradients(n.Params())
}

// ReleaseGradients drops the gradient accumulators of a parameter set. It
// is the package-level form used by model containers that are not a single
// Network (e.g. the climate encoder/heads/decoder assembly).
func ReleaseGradients(params []*Param) {
	for _, p := range params {
		p.Grad = nil
	}
}

// Freeze marks the named layers as frozen: their weights stay live for the
// forward pass but they drop their gradient accumulators, leave
// TrainableLayers, and the backward pass stops before reaching them. This
// is the transfer-learning configuration — load a donor checkpoint into the
// early convolutional backbone, freeze it, and train only the new head; a
// frozen layer therefore also exchanges zero gradient bytes with the
// parameter servers, since the exchange tiers pair state with
// TrainableLayers.
//
// Constraint: the frozen parameterised layers must form a prefix of the
// parameterised layers (every frozen layer precedes every trainable one).
// The sequential backward pass stops at the first trainable layer, so a
// frozen layer sandwiched between trainable ones would silently corrupt
// upstream gradients; Freeze panics rather than allow it. Parameter-free
// layers (activations, pooling) may be named anywhere — freezing them is a
// no-op beyond documentation. Unknown names panic.
func (n *Network) Freeze(names ...string) {
	if len(names) == 0 {
		return
	}
	want := make(map[string]bool, len(names))
	for _, nm := range names {
		want[nm] = true
	}
	if n.frozen == nil {
		n.frozen = make(map[Layer]bool, len(names))
	}
	for _, l := range n.Layers {
		if want[l.Name()] {
			n.frozen[l] = true
			delete(want, l.Name())
		}
	}
	if len(want) > 0 {
		for nm := range want {
			panic(fmt.Sprintf("nn: Freeze: network %q has no layer %q", n.NetName, nm))
		}
	}
	seenTrainable := false
	for _, l := range n.Layers {
		if len(l.Params()) == 0 {
			continue
		}
		if n.frozen[l] {
			if seenTrainable {
				panic(fmt.Sprintf("nn: Freeze: frozen layer %q follows a trainable layer; frozen layers must form a prefix", l.Name()))
			}
			ReleaseGradients(l.Params())
		} else {
			seenTrainable = true
		}
	}
}

// Frozen returns the names of frozen layers in layer order (empty when
// nothing is frozen).
func (n *Network) Frozen() []string {
	if len(n.frozen) == 0 {
		return nil
	}
	var names []string
	for _, l := range n.Layers {
		if n.frozen[l] {
			names = append(names, l.Name())
		}
	}
	return names
}

// backwardCut returns the index of the first layer the backward pass must
// reach: the earliest non-frozen parameterised layer. With nothing frozen
// it is 0 (the full backward, including input gradients). A fully frozen
// network has no backward to run and panics — compile an inference plan.
func (n *Network) backwardCut() int {
	if len(n.frozen) == 0 {
		return 0
	}
	for i, l := range n.Layers {
		if len(l.Params()) > 0 && !n.frozen[l] {
			return i
		}
	}
	panic(fmt.Sprintf("nn: Backward on fully frozen network %q", n.NetName))
}

// Params returns all trainable parameters in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// TrainableLayers returns the non-frozen layers that own parameters, in
// order. The hybrid architecture dedicates one parameter server to each of
// these (paper §III-E: 6 for HEP, 14 for climate); because frozen layers
// (see Freeze) are excluded here, every consumer of this list — solvers,
// all-reduce, parameter servers, checkpoint staging — skips them without
// further plumbing.
func (n *Network) TrainableLayers() []Layer {
	var ls []Layer
	for _, l := range n.Layers {
		if len(l.Params()) > 0 && !n.frozen[l] {
			ls = append(ls, l)
		}
	}
	return ls
}

// TrainableParams returns the parameters of TrainableLayers in layer order
// — Params minus the frozen prefix. Training plans validate gradient
// presence against this set.
func (n *Network) TrainableParams() []*Param {
	if len(n.frozen) == 0 {
		return n.Params()
	}
	var ps []*Param
	for _, l := range n.TrainableLayers() {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears every parameter gradient accumulator. Released gradients
// (see ReleaseGradients) are skipped.
func (n *Network) ZeroGrad() {
	ZeroGrads(n.Params())
}

// ZeroGrads clears a parameter set's gradient accumulators, skipping
// released ones. Replicas cache their parameter slice and call this form so
// per-iteration gradient zeroing performs no allocation (Network.ZeroGrad
// rebuilds the slice each call).
func ZeroGrads(params []*Param) {
	for _, p := range params {
		if p.Grad != nil {
			p.Grad.Zero()
		}
	}
}

// ScaleGrad multiplies every gradient by alpha (used to average
// sample-summed gradients into per-example means).
func (n *Network) ScaleGrad(alpha float32) {
	for _, p := range n.Params() {
		if p.Grad != nil {
			tensor.Scale(alpha, p.Grad.Data)
		}
	}
}

// NumParams returns the total trainable element count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += p.NumEl()
	}
	return total
}

// ParamBytes returns total parameter bytes — the model size exchanged with
// parameter servers (Table II's "Parameters size" column).
func (n *Network) ParamBytes() int64 {
	var total int64
	for _, p := range n.Params() {
		total += p.Bytes()
	}
	return total
}

// LayerFlop is one row of the per-layer FLOP breakdown.
type LayerFlop struct {
	Name  string
	Count FlopCount // per sample
	Bytes int64     // parameter bytes owned by the layer
}

// FLOPBreakdown returns per-layer per-sample flop counts in layer order.
func (n *Network) FLOPBreakdown() []LayerFlop {
	shape := n.InShape
	rows := make([]LayerFlop, 0, len(n.Layers))
	for _, l := range n.Layers {
		var bytes int64
		for _, p := range l.Params() {
			bytes += p.Bytes()
		}
		rows = append(rows, LayerFlop{Name: l.Name(), Count: l.FLOPs(shape), Bytes: bytes})
		shape = l.OutShape(shape)
	}
	return rows
}

// FLOPsPerSample returns total fwd+bwd flop counts for one sample.
func (n *Network) FLOPsPerSample() FlopCount {
	var total FlopCount
	for _, row := range n.FLOPBreakdown() {
		total = total.Add(row.Count)
	}
	return total
}

// CopyWeightsFrom copies parameter values (not gradients) from src, which
// must have an identical architecture. Used to fan a master model out to
// worker replicas and to install parameter-server responses.
func (n *Network) CopyWeightsFrom(src *Network) {
	dst := n.Params()
	sp := src.Params()
	if len(dst) != len(sp) {
		panic("nn: CopyWeightsFrom architecture mismatch")
	}
	for i := range dst {
		dst[i].W.CopyFrom(sp[i].W)
	}
}

// Summary renders a human-readable architecture table.
func (n *Network) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (input %v)\n", n.NetName, n.InShape)
	shape := n.InShape
	for _, l := range n.Layers {
		out := l.OutShape(shape)
		var params int
		for _, p := range l.Params() {
			params += p.NumEl()
		}
		fmt.Fprintf(&b, "  %-18s %v -> %v  params=%d\n", l.Name(), shape, out, params)
		shape = out
	}
	fmt.Fprintf(&b, "  total params %d (%.1f MiB)\n", n.NumParams(), float64(n.ParamBytes())/(1<<20))
	return b.String()
}

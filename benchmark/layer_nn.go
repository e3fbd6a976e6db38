package main

// Adapter for internal/nn — the only file of the benchmark that imports it.
// Entry points used: Compile, CompileQuantized, CalibrateActivations,
// Plan.Forward/Backward, QuantPlan.Forward, NewNetwork, NewConv2D,
// SoftmaxCrossEntropyInto, Network.FLOPsPerSample/Params/OutShape/
// TrainableLayers, SaveFile. Everything runs through compiled plans; the layers' own
// Forward/Backward are not called.

import (
	"fmt"
	"time"

	"deep15pf/internal/nn"
)

// Network is named here so workload files can hold one without importing
// the layer.
type Network = nn.Network

// saveWeights writes net's parameters as a D15W checkpoint file.
func saveWeights(path string, net *Network) error { return nn.SaveFile(path, net.Params()) }

// setWeights installs trained weights — core.Result.FinalWeights: per
// trainable layer, per parameter blob — into net.
func setWeights(net *Network, weights [][][]float32) error {
	layers := net.TrainableLayers()
	if len(weights) != len(layers) {
		return fmt.Errorf("weights for %d layers, network has %d", len(weights), len(layers))
	}
	for i, l := range layers {
		params := l.Params()
		if len(weights[i]) != len(params) {
			return fmt.Errorf("layer %d: %d weight blobs for %d parameters", i, len(weights[i]), len(params))
		}
		for j, p := range params {
			if len(weights[i][j]) != len(p.W.Data) {
				return fmt.Errorf("layer %d blob %d: %d values for %d", i, j, len(weights[i][j]), len(p.W.Data))
			}
			copy(p.W.Data, weights[i][j])
		}
	}
	return nil
}

// trainFLOPsPerSample is nn's exact forward+backward flop count for one
// sample — computed, not measured.
func trainFLOPsPerSample(net *Network) float64 { return float64(net.FLOPsPerSample().Total()) }

// stepProbe holds a compiled training plan over a network plus one staged
// batch, so forward and backward can be timed apart.
type stepProbe struct {
	plan   *nn.Plan
	x      *Tensor
	labels []int
	grad   *Tensor
}

func newStepProbe(net *Network, batch int, seed uint64) *stepProbe {
	rng := newRNG(seed)
	x := newTensor(append([]int{batch}, net.InShape...)...)
	rng.FillNorm(x, 0, 1)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = i % 2
	}
	return &stepProbe{
		plan:   nn.Compile(net, batch, true, nil),
		x:      x,
		labels: labels,
		grad:   newTensor(append([]int{batch}, net.OutShape()...)...),
	}
}

// forward runs the planned forward pass and the softmax loss, leaving the
// loss gradient staged for backward.
func (p *stepProbe) forward() {
	logits := p.plan.Forward(p.x)
	nn.SoftmaxCrossEntropyInto(logits, p.labels, p.grad)
}

func (p *stepProbe) backward() { p.plan.Backward(p.grad) }

// probeTrainStep times the planned forward(+loss) and backward of net at
// the given batch and counts heap allocations per warm step over allocSteps
// steps.
func probeTrainStep(net *Network, batch, allocSteps int, budget time.Duration) (fwdMs, bwdMs, allocs float64) {
	p := newStepProbe(net, batch, 3)
	defer p.plan.Release()
	p.forward()
	p.backward()
	fwdMs = timeLoop(budget/2, p.forward) * 1e3
	// A backward needs a fresh forward's state; time the pair and subtract.
	pair := timeLoop(budget/2, func() { p.forward(); p.backward() }) * 1e3
	bwdMs = pair - fwdMs
	allocs = allocsPer(allocSteps, func() { p.forward(); p.backward() })
	return fwdMs, bwdMs, allocs
}

// probeConvLayer times one 3×3 stride-1 convolution as a single-layer
// training plan — one row of the paper's Fig. 5 table.
func probeConvLayer(name string, inC, outC, size, batch int, budget time.Duration) (fwdMs, bwdMs float64) {
	rng := newRNG(4)
	net := nn.NewNetwork(name, inC, size, size).Add(nn.NewConv2D(name, inC, outC, 3, 1, 1, rng))
	plan := nn.Compile(net, batch, true, nil)
	defer plan.Release()
	x := newTensor(batch, inC, size, size)
	rng.FillNorm(x, 0, 1)
	dout := newTensor(batch, outC, size, size)
	rng.FillNorm(dout, 0, 1)
	fwdMs = timeLoop(budget/2, func() { plan.Forward(x) }) * 1e3
	pair := timeLoop(budget/2, func() { plan.Forward(x); plan.Backward(dout) }) * 1e3
	return fwdMs, pair - fwdMs
}

// probeInfer times an inference-plan forward of net at the given batch,
// fp32 or int8 (activation scales calibrated on the probe batch).
func probeInfer(net *Network, batch int, int8Path bool, budget time.Duration) (ms float64) {
	rng := newRNG(5)
	x := newTensor(append([]int{batch}, net.InShape...)...)
	rng.FillNorm(x, 0, 1)
	if int8Path {
		plan := nn.CompileQuantized(net, batch, nn.CalibrateActivations(net, x), nil)
		defer plan.Release()
		return timeLoop(budget, func() { plan.Forward(x) }) * 1e3
	}
	plan := nn.Compile(net, batch, false, nil)
	defer plan.Release()
	return timeLoop(budget, func() { plan.Forward(x) }) * 1e3
}

// referenceForward runs x through a fresh inference plan over net and
// returns a copy of the output — the reference the serving checks compare
// responses against.
func referenceForward(net *Network, x *Tensor) *Tensor {
	plan := nn.Compile(net, x.Shape[0], false, nil)
	defer plan.Release()
	return plan.Forward(x).Clone()
}

// naiveScore is the reference the bulk engine is held against: consecutive
// batches read one after another, one inference-plan forward each, top-1
// label and confidence per sample. read fills dst with the features of the
// samples idx names.
func naiveScore(net *Network, count, batch int, read func(idx []int, dst []float32) error) (label []int32, conf []float32, err error) {
	plan := nn.Compile(net, batch, false, nil)
	defer plan.Release()
	label, conf = make([]int32, count), make([]float32, count)
	x := newTensor(append([]int{batch}, net.InShape...)...)
	per := x.Len() / batch
	idx := make([]int, 0, batch)
	for lo := 0; lo < count; lo += batch {
		n := min(batch, count-lo)
		idx = idx[:0]
		for i := 0; i < n; i++ {
			idx = append(idx, lo+i)
		}
		xb := tensorFromSlice(x.Data[:n*per], append([]int{n}, net.InShape...)...)
		if err := read(idx, xb.Data); err != nil {
			return nil, nil, err
		}
		if err := nn.SoftmaxTop1(plan.Forward(xb), conf[lo:lo+n], label[lo:lo+n]); err != nil {
			return nil, nil, err
		}
	}
	return label, conf, nil
}

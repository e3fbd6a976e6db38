package climate

import (
	"math"
	"slices"
	"testing"

	"deep15pf/internal/tensor"
)

func tinyClimNet(rng *tensor.RNG) *Net {
	return BuildNet(ModelConfig{
		Name: "tiny", Size: 16,
		EncChannels: []int{6, 8},
		EncStrides:  []int{2, 2},
		DecChannels: []int{8, NumChannels},
		WithDecoder: true,
	}, rng)
}

func TestLossPartsAllActive(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := tinyClimNet(rng)
	x := tensor.New(1, NumChannels, 16, 16)
	rng.FillNorm(x, 0, 1)
	boxes := [][]Box{{{X: 2, Y: 2, W: 6, H: 6, Class: TropicalCyclone}}}
	out := newRef(net).Forward(x, true)
	parts, grads := net.Loss(out, x, boxes, nil, DefaultLossWeights())
	if parts.Obj <= 0 || parts.NoObj <= 0 || parts.Class <= 0 || parts.Recon <= 0 {
		t.Fatalf("inactive loss terms: %+v", parts)
	}
	for _, g := range []*tensor.Tensor{grads.Conf, grads.Class, grads.BoxP, grads.Recon} {
		if g == nil || !nonzero(g) {
			t.Fatal("missing gradient")
		}
	}
}

func TestUnlabeledSamplesOnlyReconstruct(t *testing.T) {
	rng := tensor.NewRNG(2)
	net := tinyClimNet(rng)
	x := tensor.New(2, NumChannels, 16, 16)
	rng.FillNorm(x, 0, 1)
	boxes := [][]Box{
		{{X: 2, Y: 2, W: 6, H: 6, Class: TropicalCyclone}},
		nil, // unlabeled
	}
	out := newRef(net).Forward(x, true)
	_, grads := net.Loss(out, x, boxes, []bool{false, false}, DefaultLossWeights())
	// No labeled samples: detection grads must be exactly zero.
	if nonzero(grads.Conf) || nonzero(grads.Class) || nonzero(grads.BoxP) {
		t.Fatal("unlabeled batch must not produce detection gradients")
	}
	if grads.Recon == nil || !nonzero(grads.Recon) {
		t.Fatal("unlabeled batch must still reconstruct")
	}
}

func TestSemiSupervisedMixedBatch(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := tinyClimNet(rng)
	x := tensor.New(2, NumChannels, 16, 16)
	rng.FillNorm(x, 0, 1)
	boxes := [][]Box{
		{{X: 2, Y: 2, W: 6, H: 6, Class: TropicalCyclone}},
		nil,
	}
	out := newRef(net).Forward(x, true)
	_, grads := net.Loss(out, x, boxes, []bool{true, false}, DefaultLossWeights())
	g := net.GridSize
	cells := g * g
	// Sample 0 (labeled) must have conf gradients; sample 1 must not.
	var s0, s1 float32
	for i := 0; i < cells; i++ {
		if v := grads.Conf.Data[i]; v < 0 {
			s0 -= v
		} else {
			s0 += v
		}
		if v := grads.Conf.Data[cells+i]; v < 0 {
			s1 -= v
		} else {
			s1 += v
		}
	}
	if s0 == 0 {
		t.Fatal("labeled sample has no detection gradient")
	}
	if s1 != 0 {
		t.Fatal("unlabeled sample leaked detection gradient")
	}
}

func TestLossGradientsNumerically(t *testing.T) {
	// Validate the hand-rolled multi-term loss gradient end to end against
	// central differences through the full network.
	rng := tensor.NewRNG(4)
	net := tinyClimNet(rng)
	x := tensor.New(1, NumChannels, 16, 16)
	rng.FillNorm(x, 0, 0.5)
	boxes := [][]Box{{{X: 3, Y: 5, W: 7, H: 6, Class: ExtratropicalCyclone}}}
	w := DefaultLossWeights()

	ref := newRef(net)
	lossAt := func() float64 {
		parts, _ := net.Loss(ref.Forward(x, true), x, boxes, nil, w)
		return parts.Total()
	}
	net.ZeroGrad()
	ref.TrainStep(x, boxes, nil, w)

	const eps = 2e-3
	for _, p := range net.Params() {
		stride := p.W.Len()/12 + 1
		bad := 0
		probes := 0
		for i := 0; i < p.W.Len(); i += stride {
			old := p.W.Data[i]
			p.W.Data[i] = old + eps
			lp := lossAt()
			p.W.Data[i] = old - eps
			lm := lossAt()
			p.W.Data[i] = old
			num := (lp - lm) / (2 * eps)
			got := float64(p.Grad.Data[i])
			probes++
			if math.Abs(got-num) > 5e-2*math.Abs(num)+1e-3 {
				bad++
			}
		}
		// ReLU kinks allow a small disagreement rate.
		if float64(bad) > 0.2*float64(probes) {
			t.Fatalf("%s: %d/%d gradient probes disagree", p.Name, bad, probes)
		}
	}
}

func TestTrainingReducesDetectionLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("training smoke test")
	}
	rng := tensor.NewRNG(5)
	net := tinyClimNet(rng)
	cfg := DefaultGenConfig(16)
	cfg.MeanTC = 1.5
	cfg.ARProb = 0
	cfg.MeanETC = 0
	ds := GenerateDataset(cfg, 16, rng)
	idx := make([]int, 16)
	for i := range idx {
		idx[i] = i
	}
	x, boxes := ds.Batch(idx)
	w := DefaultLossWeights()
	first := math.Inf(1)
	var last float64
	lr := float32(0.02)
	tp := net.NewTrainPlan(16, nil)
	for it := 0; it < 40; it++ {
		net.ZeroGrad()
		parts := tp.Step(x, boxes, nil, w)
		if it == 0 {
			first = parts.Total()
		}
		last = parts.Total()
		for _, p := range net.Params() {
			for i := range p.W.Data {
				p.W.Data[i] -= lr * p.Grad.Data[i]
			}
		}
	}
	if last >= first {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", first, last)
	}
}

func TestDetectEndToEnd(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := tinyClimNet(rng)
	x := tensor.New(1, NumChannels, 16, 16)
	dets := net.Detect(x, 0.8, 0.4)
	if len(dets) != 1 {
		t.Fatalf("per-sample detections missing: %d", len(dets))
	}
	// Untrained net with zero-ish logits: sigmoid(~0)≈0.5 < 0.8 mostly.
	for _, d := range dets[0] {
		if d.Confidence < 0.8 {
			t.Fatalf("threshold violated: %v", d.Confidence)
		}
	}
}

func TestRenderASCII(t *testing.T) {
	rng := tensor.NewRNG(7)
	cfg := DefaultGenConfig(64)
	s := cfg.Generate(rng)
	dets := []Detection{{Box: Box{X: 5, Y: 5, W: 20, H: 20, Class: TropicalCyclone}, Confidence: 0.9}}
	out := RenderASCII(s, dets, 48)
	if len(out) == 0 {
		t.Fatal("empty rendering")
	}
	for _, want := range []string{"TMQ", "*", "pred:"} {
		if !containsStr(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexStr(s, sub) >= 0)
}

func indexStr(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// nonzero reports whether any element of t is non-zero.
func nonzero(t *tensor.Tensor) bool {
	return slices.ContainsFunc(t.Data, func(v float32) bool { return v != 0 })
}

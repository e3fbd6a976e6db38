package climate

import (
	"testing"

	"deep15pf/internal/tensor"
)

// TestTrainPlanMatchesTrainStep pins the acceptance criterion on the
// climate side: a compiled TrainPlan.Step must reproduce refNet's
// layer-by-layer train step bitwise — loss parts and every parameter
// gradient — across the semi-supervised labeled/unlabeled split.
func TestTrainPlanMatchesTrainStep(t *testing.T) {
	rng := tensor.NewRNG(81)
	cfg := SmallConfig()
	ds := GenerateDataset(DefaultGenConfig(64), 6, rng)
	idx := []int{0, 2, 4, 5}
	x, boxes := ds.Batch(idx)
	labeled := []bool{true, true, false, true} // mixed semi-supervised batch
	w := DefaultLossWeights()

	unplanned := BuildNet(cfg, tensor.NewRNG(9))
	planned := BuildNet(cfg, tensor.NewRNG(9))

	wantParts := newRef(unplanned).TrainStep(x, boxes, labeled, w)
	tp := planned.NewTrainPlan(len(idx), nil)
	gotParts := tp.Step(x, boxes, labeled, w)

	if gotParts != wantParts {
		t.Fatalf("loss parts diverge: %+v vs %+v", gotParts, wantParts)
	}
	lp, pp := unplanned.Params(), planned.Params()
	for i := range lp {
		for j := range lp[i].Grad.Data {
			if pp[i].Grad.Data[j] != lp[i].Grad.Data[j] {
				t.Fatalf("param %s grad diverges at %d: %v vs %v",
					lp[i].Name, j, pp[i].Grad.Data[j], lp[i].Grad.Data[j])
			}
		}
	}
}

// TestTrainPlanRepeatedStepsStayIdentical reruns a plan on the same batch
// (with a perturbing different batch in between) to prove recycled buffers
// reset deterministically.
func TestTrainPlanRepeatedStepsStayIdentical(t *testing.T) {
	rng := tensor.NewRNG(83)
	cfg := SmallConfig()
	ds := GenerateDataset(DefaultGenConfig(64), 6, rng)
	w := DefaultLossWeights()
	net := BuildNet(cfg, tensor.NewRNG(10))
	tp := net.NewTrainPlan(2, nil)

	xa, boxesA := ds.Batch([]int{0, 1})
	xb, boxesB := ds.Batch([]int{2, 3})

	net.ZeroGrad()
	first := tp.Step(xa, boxesA, nil, w)
	snap := append([]float32(nil), net.Params()[0].Grad.Data...)

	net.ZeroGrad()
	tp.Step(xb, boxesB, nil, w)

	net.ZeroGrad()
	again := tp.Step(xa, boxesA, nil, w)
	if again != first {
		t.Fatalf("repeat loss parts diverge: %+v vs %+v", again, first)
	}
	for j, v := range net.Params()[0].Grad.Data {
		if v != snap[j] {
			t.Fatalf("repeat gradient diverges at %d: %v vs %v", j, v, snap[j])
		}
	}
}

// TestClimateTrainingIterationZeroAllocs extends the allocation regression
// gate to the semi-supervised replica: a warmed ComputeGradients (staging,
// planned forward, multi-term loss, planned backward) plus ZeroGrad must
// not allocate.
func TestClimateTrainingIterationZeroAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	rng := tensor.NewRNG(85)
	ds := GenerateDataset(DefaultGenConfig(64), 8, rng)
	p := NewTrainingProblem(ds, SmallConfig(), 11)
	p.LabeledFrac = 0.5
	rep := p.NewReplica()
	idx := []int{0, 6, 3, 7}
	iter := func() {
		rep.ZeroGrad()
		rep.ComputeGradients(idx)
	}
	iter() // warm
	if allocs := testing.AllocsPerRun(10, iter); allocs != 0 {
		t.Fatalf("warmed climate training iteration allocates %v objects/op, want 0", allocs)
	}
}

package hep

import (
	"testing"

	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

func planTestProblem(t *testing.T, events int) *TrainingProblem {
	t.Helper()
	rng := tensor.NewRNG(71)
	cfg := ModelConfig{Name: "plan-test", ImageSize: 16, Filters: 8, ConvUnits: 3, Classes: 2}
	ds := GenerateDataset(DefaultGenConfig(), NewRenderer(16), events, 0.5, rng)
	return NewTrainingProblem(ds, cfg, 5)
}

// TestReplicaPlanMatchesLegacyPath pins the acceptance criterion on the HEP
// side: the replica's ComputeGradients (staging slots, cached plan, the
// in-place loss, BackwardParams) must produce bitwise-identical loss and
// parameter gradients to a plain forward, loss, backward sequence over an
// independently compiled plan — which internal/nn in turn holds to the
// layers run one by one into fresh tensors.
func TestReplicaPlanMatchesLegacyPath(t *testing.T) {
	p := planTestProblem(t, 12)
	rep := p.NewReplica()

	plainNet := BuildNet(p.Model, tensor.NewRNG(p.InitSeed))
	idx := []int{0, 3, 7, 11, 4, 2}
	x, labels := p.DS.Batch(idx)
	plain := nn.Compile(plainNet, len(idx), true, nil)
	wantLoss, grad := nn.SoftmaxCrossEntropy(plain.Forward(x), labels)
	plain.Backward(grad)

	rep.ZeroGrad()
	gotLoss := rep.ComputeGradients(idx)
	if gotLoss != wantLoss {
		t.Fatalf("replica loss %v, plain loss %v", gotLoss, wantLoss)
	}
	lp := plainNet.Params()
	var rp []*nn.Param
	for _, l := range rep.TrainableLayers() {
		rp = append(rp, l.Params()...)
	}
	for i := range lp {
		for j := range lp[i].Grad.Data {
			if rp[i].Grad.Data[j] != lp[i].Grad.Data[j] {
				t.Fatalf("param %s grad diverges at %d: %v vs %v",
					lp[i].Name, j, rp[i].Grad.Data[j], lp[i].Grad.Data[j])
			}
		}
	}
}

// TestReplicaTrainingIterationZeroAllocs is the hybrid-training side of the
// allocation regression gate: after warmup, one training iteration's
// gradient computation (batch staging, planned forward, loss, planned
// backward, gradient zeroing) must not allocate. Kernel parallelism is
// pinned to 1 — ParallelFor goroutine spawns are scheduler state, not
// steady-state memory churn.
func TestReplicaTrainingIterationZeroAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	p := planTestProblem(t, 16)
	rep := p.NewReplica()
	idx := []int{1, 5, 9, 13}
	iter := func() {
		rep.ZeroGrad()
		rep.ComputeGradients(idx)
	}
	iter() // warm: compiles the plan, sizes the staging
	if allocs := testing.AllocsPerRun(20, iter); allocs != 0 {
		t.Fatalf("warmed training iteration allocates %v objects/op, want 0", allocs)
	}
}

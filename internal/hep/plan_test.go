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
	logits := plain.Forward(x)
	grad := tensor.New(logits.Shape...)
	wantLoss := nn.SoftmaxCrossEntropyInto(logits, labels, grad)
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
// backward, gradient zeroing) must not allocate, at 1, 2 and 4 kernel
// workers: below the tile nothing forks but a GEMM above tensor's
// gemmParallelMin, and this model has none.
func TestReplicaTrainingIterationZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	p := planTestProblem(t, 16)
	rep := p.NewReplica()
	idx := []int{1, 5, 9, 13}
	iter := func() {
		rep.ZeroGrad()
		rep.ComputeGradients(idx)
	}
	iter() // warm: compiles the plan, sizes the staging
	for _, workers := range []int{1, 2, 4} {
		tensor.SetWorkers(workers)
		if allocs := testing.AllocsPerRun(20, iter); allocs != 0 {
			t.Fatalf("warmed training iteration at %d workers allocates %v objects/op, want 0", workers, allocs)
		}
	}
}

package climate

import (
	"testing"

	"deep15pf/internal/ckpt"
	"deep15pf/internal/core"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

// goldenBenchNet is the FNV weight fingerprint (ckpt.FingerprintWeights, the
// one the trainers print) after four synchronous ADAM updates of the
// benchmark-shaped network below, recorded at commit 598a3d3 — before the
// strided lowerings moved onto vector kernels and the deconvolutions onto
// chunk-wide GEMMs. Those changed how the step is executed, not one bit of
// what it computes; this constant is the proof, inside `go test`.
const goldenBenchNet = uint64(0xf7f75543c14f9da4)

// TestBenchmarkNetTrajectoryGolden trains the net train_climate_hybrid
// measures — a stride-2 k3 encoder, the three heads and a k4/s2/p1
// deconvolutional decoder on a 32×32 grid, batch 4, half the samples
// unlabeled — and requires the pinned fingerprint under every kernel table
// the host can run.
func TestBenchmarkNetTrajectoryGolden(t *testing.T) {
	model := ModelConfig{
		Name: "climate-bench", Size: 32,
		EncChannels: []int{32, 64, 96, 128}, EncStrides: []int{2, 2, 2, 1},
		DecChannels: []int{64, 32, NumChannels}, WithDecoder: true,
	}
	ds := GenerateDataset(DefaultGenConfig(model.Size), 16, tensor.NewRNG(7))
	defer tensor.SetKernels("auto")
	for _, isa := range tensor.KernelISAs() {
		if err := tensor.SetKernels(isa); err != nil {
			t.Fatal(err)
		}
		p := NewTrainingProblem(ds, model, 8)
		p.LabeledFrac = 0.5
		res := core.TrainSync(p, core.Config{
			Groups: 1, WorkersPerGroup: 1, GroupBatch: 4, Iterations: 4,
			Solver: opt.NewAdam(1e-3), Seed: 9})
		if got := ckpt.FingerprintWeights(res.FinalWeights); got != goldenBenchNet {
			t.Errorf("%s kernels: weight fingerprint %#016x, want %#016x", isa, got, goldenBenchNet)
		}
	}
}

// Climate example (§III-B, §VII-B): train the semi-supervised extreme-
// weather detector — shared convolutional encoder, per-cell box/class/
// confidence heads, deconvolutional reconstruction decoder — on synthetic
// CAM5-style fields with only half the snapshots labeled, then detect
// events in held-out data.
//
//	go run ./examples/climate
package main

import (
	"fmt"

	"deep15pf/internal/climate"
	"deep15pf/internal/core"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

func main() {
	rng := tensor.NewRNG(21)
	size := 48
	gen := climate.DefaultGenConfig(size)
	train := climate.GenerateDataset(gen, 96, rng)
	test := climate.GenerateDataset(gen, 16, rng)

	model := climate.ModelConfig{
		Name: "climate-example", Size: size,
		EncChannels: []int{12, 16, 24, 32, 32},
		EncStrides:  []int{2, 2, 2, 2, 1},
		DecChannels: []int{24, 16, 12, climate.NumChannels},
		WithDecoder: true, // the autoencoder path that consumes unlabeled data
	}
	problem := climate.NewTrainingProblem(train, model, 23)
	problem.LabeledFrac = 0.5 // half the snapshots have boxes; the rest only reconstruct

	res := core.TrainSync(problem, core.Config{
		Groups: 1, WorkersPerGroup: 1, GroupBatch: 8, Iterations: 240,
		Solver: opt.NewAdam(1.5e-3), Seed: 5,
	})
	fmt.Printf("trained %d iterations (50%% labeled), final loss %.3f\n", len(res.Stats), res.FinalLoss)

	net := problem.TrainedNet(res.FinalWeights)

	var agg climate.MatchResult
	for i, s := range test.Samples {
		x, _ := test.Batch([]int{i})
		dets := net.Detect(x, 0.5, 0.4)[0] // paper uses 0.8; 0.5 suits this budget
		agg = agg.Add(climate.Match(dets, s.Boxes, 0.35))
	}
	fmt.Printf("detection @0.5: precision %.2f recall %.2f mean IoU %.2f\n",
		agg.Precision(), agg.Recall(), agg.MeanIoU)

	x, _ := test.Batch([]int{0})
	fmt.Println("\nFig 9 analogue:")
	fmt.Println(climate.RenderASCII(test.Samples[0], net.Detect(x, 0.5, 0.4)[0], 64))
}

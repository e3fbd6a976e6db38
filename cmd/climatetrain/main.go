// Command climatetrain trains the semi-supervised climate detector
// (§III-B) on synthetic CAM5-style fields and reports bounding-box
// detection metrics plus a Fig 9-style ASCII overlay.
//
// Usage:
//
//	climatetrain -iters 200 -train 128 -labeled 0.5
package main

import (
	"flag"
	"fmt"

	"deep15pf/internal/climate"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
	"deep15pf/internal/traincli"
)

func main() { traincli.Main("climatetrain", run) }

func run(args []string) error {
	fs := flag.NewFlagSet("climatetrain", flag.ExitOnError)
	tc := traincli.Flags(fs, "climatetrain", 8)
	trainN := fs.Int("train", 96, "training snapshots")
	testN := fs.Int("test", 24, "test snapshots")
	size := fs.Int("size", 64, "field size (paper uses 768; must divide by 16)")
	labeled := fs.Float64("labeled", 1.0, "labeled fraction (rest train the autoencoder only)")
	lr := fs.Float64("lr", 1.5e-3, "learning rate")
	conf := fs.Float64("conf", 0.8, "inference confidence threshold (paper uses 0.8)")
	fs.Parse(args)

	stop, err := tc.Start()
	if err != nil {
		return err
	}
	defer stop()

	rng := tensor.NewRNG(tc.Seed)
	gen := climate.DefaultGenConfig(*size)
	fmt.Printf("generating %d train + %d test snapshots (%dx%dx16), %.0f%% labeled...\n",
		*trainN, *testN, *size, *size, 100**labeled)
	train := climate.GenerateDataset(gen, *trainN, rng)
	test := climate.GenerateDataset(gen, *testN, rng)

	model := climate.SmallConfig()
	model.Size = *size
	problem := climate.NewTrainingProblem(train, model, tc.Seed+1)
	problem.LabeledFrac = *labeled
	res, err := tc.Train(problem, "climate", opt.NewAdam(*lr))
	if err != nil {
		return err
	}

	// Evaluate the trained model.
	net := problem.TrainedNet(res.FinalWeights)
	var agg climate.MatchResult
	for i, s := range test.Samples {
		x, _ := test.Batch([]int{i})
		dets := net.Detect(x, *conf, 0.4)[0]
		agg = agg.Add(climate.Match(dets, s.Boxes, 0.35))
	}
	fmt.Printf("detection at confidence > %.1f: precision %.2f, recall %.2f, mean IoU %.2f (TP %d FP %d FN %d)\n",
		*conf, agg.Precision(), agg.Recall(), agg.MeanIoU,
		agg.TruePositives, agg.FalsePositives, agg.FalseNegatives)
	x, _ := test.Batch([]int{0})
	fmt.Println("\nFig 9 analogue (first test snapshot):")
	fmt.Println(climate.RenderASCII(test.Samples[0], net.Detect(x, *conf, 0.4)[0], 72))
	return nil
}

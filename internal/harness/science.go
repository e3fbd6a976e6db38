package harness

import (
	"fmt"
	"strings"

	"deep15pf/internal/climate"
	"deep15pf/internal/core"
	"deep15pf/internal/hep"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

// trainOneReplica is the science reports' training loop: one replica, no
// trainer around it, batches drawn from the problem's own source. It
// returns the trained weights (Result.FinalWeights layout) and the last
// batch's loss.
func trainOneReplica(p core.Problem, sourceSeed uint64, iters, batch int, solver opt.Solver) ([][][]float32, float64) {
	rep := p.NewReplica()
	src := p.NewBatchSource(sourceSeed)
	var lastLoss float64
	for it := 0; it < iters; it++ {
		idx := src.Next(batch)
		rep.ZeroGrad()
		lastLoss = rep.ComputeGradients(idx)
		for _, l := range rep.TrainableLayers() {
			solver.Step(l.Params())
		}
	}
	return core.ExtractWeights(rep.TrainableLayers()), lastLoss
}

// HEPScience reproduces §VII-A: the CNN's signal efficiency at the
// cut-based baseline's (very low) false-positive rate. Paper numbers:
// baseline TPR 42% @ FPR 0.02%; CNN 72% at the same FPR — a 1.7x
// improvement (1.3x for the reduced-tuning full-system run). Our synthetic
// sample is smaller, so the baseline FPR floor is higher, but the
// comparison at the baseline's own operating point is the same experiment.
func HEPScience(opts Options) Report {
	trainN, testN, iters, batch := 1536, 3072, 220, 64
	if opts.Quick {
		trainN, testN, iters, batch = 512, 1024, 90, 32
	}
	imgSize := 16

	rng := tensor.NewRNG(opts.Seed + 7)
	gen := hep.DefaultGenConfig()
	r := hep.NewRenderer(imgSize)
	train := hep.GenerateDataset(gen, r, trainN, 0.5, rng)
	test := hep.GenerateDataset(gen, r, testN, 0.5, rng)

	model := hep.ModelConfig{Name: "hep-sci", ImageSize: imgSize, Filters: 8, ConvUnits: 3, Classes: 2}
	problem := hep.NewTrainingProblem(train, model, opts.Seed+17)
	weights, lastLoss := trainOneReplica(problem, opts.Seed+23, iters, batch, opt.NewAdam(2e-3))

	scores := hep.ScoreDataset(problem.TrainedNet(weights), test, 64)
	res := hep.CompareToBaseline(hep.DefaultBaseline(), test.Events, scores, test.Labels)

	t := newTable("selection", "TPR", "at FPR", "improvement")
	t.addf("baseline cuts (paper)|42%%|0.02%%|1.0x")
	t.addf("CNN (paper, tuned)|72%%|0.02%%|1.7x")
	t.addf("CNN (paper, at-scale run)|~55%%|0.02%%|1.3x")
	t.addf("baseline cuts (ours)|%.1f%%|%.3f%%|1.0x", 100*res.BaselineTPR, 100*res.BaselineFPR)
	t.addf("CNN (ours)|%.1f%%|%.3f%%|%.2fx", 100*res.CNNTPRAtBaselineFPR, 100*res.BaselineFPR, res.Improvement)

	body := t.String() + fmt.Sprintf(
		"\nTest sample: %d events (50%% signal); CNN AUC %.3f; final training loss %.3f.\n"+
			"The reproduced claim is the *shape*: classification on low-level detector images beats\n"+
			"selections on high-level physics features at the baseline's own operating point.\n",
		testN, res.AUC, lastLoss)
	return Report{ID: "hepscience", Title: "HEP science result (§VII-A)", Body: body}
}

// ClimateScience reproduces §VII-B / Fig 9: the semi-supervised detector's
// bounding boxes at confidence > 0.8 against ground truth, with an ASCII
// analogue of Fig 9 and detection metrics the paper was still developing
// ("we are working on generating additional metrics").
func ClimateScience(opts Options) Report {
	trainN, testN, iters, batch := 192, 48, 260, 8
	if opts.Quick {
		trainN, testN, iters, batch = 96, 24, 120, 8
	}
	size := 48

	rng := tensor.NewRNG(opts.Seed + 31)
	gen := climate.DefaultGenConfig(size)
	train := climate.GenerateDataset(gen, trainN, rng)
	test := climate.GenerateDataset(gen, testN, rng)

	model := climate.ModelConfig{
		Name: "clim-sci", Size: size,
		EncChannels: []int{12, 16, 24, 32, 32},
		EncStrides:  []int{2, 2, 2, 2, 1},
		DecChannels: []int{24, 16, 12, climate.NumChannels},
		WithDecoder: true,
	}
	problem := climate.NewTrainingProblem(train, model, opts.Seed+37)
	weights, lastLoss := trainOneReplica(problem, opts.Seed+41, iters, batch, opt.NewAdam(1.5e-3))
	net := problem.TrainedNet(weights)

	// Evaluate at the paper's inference threshold (>0.8) and a softer one.
	var b strings.Builder
	t := newTable("confidence", "precision", "recall", "mean IoU", "TP", "FP", "FN")
	var sampleDets []climate.Detection
	for _, conf := range []float64{0.8, 0.5} {
		var agg climate.MatchResult
		for i, s := range test.Samples {
			x, _ := test.Batch([]int{i})
			dets := net.Detect(x, conf, 0.4)[0]
			if conf == 0.8 && i == 0 {
				sampleDets = dets
			}
			agg = agg.Add(climate.Match(dets, s.Boxes, 0.35))
		}
		t.addf(">%.1f|%.2f|%.2f|%.2f|%d|%d|%d", conf,
			agg.Precision(), agg.Recall(), agg.MeanIoU,
			agg.TruePositives, agg.FalsePositives, agg.FalseNegatives)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nFinal training loss %.3f over %d snapshots (%d test).\n", lastLoss, trainN, testN)
	b.WriteString("\nFig 9 analogue — first test snapshot, TMQ channel, boxes at confidence > 0.8:\n")
	b.WriteString(climate.RenderASCII(test.Samples[0], sampleDets, 64))
	b.WriteString("\nPaper: \"the architecture does a good job of localizing and identifying tropical\n" +
		"cyclones\" (qualitative; no published benchmark existed for this task).\n")
	return Report{ID: "fig9", Title: "Climate science result (§VII-B, Fig 9)", Body: b.String()}
}

// Ablations exercises the design choices DESIGN.md calls out: per-layer
// parameter servers vs a single PS (§III-E), MLSL endpoints on/off
// (§III-D), momentum tuning under asynchrony (§VI-B4 / [31]), and
// semi-supervised vs supervised-only climate training (§III-B).
func Ablations(opts Options) Report {
	var b strings.Builder
	b.WriteString(ablationPS(opts))
	b.WriteString("\n")
	b.WriteString(ablationEndpoints(opts))
	b.WriteString("\n")
	b.WriteString(ablationMomentum(opts))
	b.WriteString("\n")
	b.WriteString(ablationSemiSup(opts))
	return Report{ID: "ablations", Title: "Design-choice ablations", Body: b.String()}
}

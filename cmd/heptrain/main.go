// Command heptrain trains the supervised HEP classifier (§III-A) on
// synthetic Pythia/Delphes-style events, using either the synchronous or
// the hybrid distributed architecture, and evaluates it against the
// cut-based baseline (§VII-A).
//
// Usage:
//
//	heptrain -groups 4 -workers 2 -iters 200 -train 2048 -test 4096
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"deep15pf/internal/hep"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
	"deep15pf/internal/traincli"
)

func main() { traincli.Main("heptrain", run) }

func run(args []string) error {
	fs := flag.NewFlagSet("heptrain", flag.ExitOnError)
	tc := traincli.Flags(fs, "heptrain", 64)
	trainN := fs.Int("train", 1024, "training events")
	testN := fs.Int("test", 2048, "test events")
	size := fs.Int("size", 16, "image size (paper uses 224; small sizes train on a laptop)")
	filters := fs.Int("filters", 8, "conv filters (paper uses 128)")
	units := fs.Int("units", 3, "conv+pool units (paper uses 5)")
	lr := fs.Float64("lr", 2e-3, "ADAM learning rate")
	beta1 := fs.Float64("beta1", 0.9, "ADAM beta1 (tune down for many groups, §VI-B4)")
	unlabeledDir := fs.String("unlabeled-dir", "", "directory of pseudo-labeled shards (from labelfactory) to append to the training set")
	pseudoWeight := fs.Float64("pseudo-weight", 0.5, "loss weight for pseudo-labeled samples (human labels stay at 1)")
	emitUnlabeled := fs.String("emit-unlabeled", "", "write the held-out -unlabeled-frac of training events to this directory as unlabeled shards, then train on the rest")
	unlabeledFrac := fs.Float64("unlabeled-frac", 0, "fraction of training events to hold out as the unlabeled pool (with or without -emit-unlabeled)")
	unlabeledShards := fs.Int("unlabeled-shards", 4, "shard count for -emit-unlabeled")
	fs.Parse(args)

	stop, err := tc.Start()
	if err != nil {
		return err
	}
	defer stop()

	rng := tensor.NewRNG(tc.Seed)
	gen := hep.DefaultGenConfig()
	r := hep.NewRenderer(*size)
	fmt.Printf("generating %d train + %d test events (%dx%dx3 images)...\n", *trainN, *testN, *size, *size)
	train := hep.GenerateDataset(gen, r, *trainN, 0.5, rng)
	test := hep.GenerateDataset(gen, r, *testN, 0.5, rng)

	// Pseudo-label flywheel legs (ROADMAP item 1). -unlabeled-frac holds
	// the tail of the generated events out of supervision; -emit-unlabeled
	// writes that pool as feature-only shards for the label factory.
	// Generation is seed-deterministic, so a later run with the same
	// -seed/-train/-size/-unlabeled-frac regenerates the identical split
	// and pseudo shards scored in between line up sample-for-sample.
	if *unlabeledFrac < 0 || *unlabeledFrac >= 1 {
		return traincli.Usagef("-unlabeled-frac must be in [0,1)")
	}
	if *unlabeledFrac > 0 {
		cut := *trainN - int(float64(*trainN)**unlabeledFrac)
		if cut < 1 {
			return traincli.Usagef("-unlabeled-frac leaves no labeled events")
		}
		pool := subsetDataset(train, cut, *trainN)
		train = subsetDataset(train, 0, cut)
		fmt.Printf("held out %d of %d events as the unlabeled pool\n", len(pool.Labels), *trainN)
		if *emitUnlabeled != "" {
			paths, err := pool.SaveShards(*emitUnlabeled, *unlabeledShards)
			if err != nil {
				return fmt.Errorf("emit-unlabeled: %w", err)
			}
			fmt.Printf("unlabeled pool written to %d shards under %s\n", len(paths), *emitUnlabeled)
		}
	} else if *emitUnlabeled != "" {
		return traincli.Usagef("-emit-unlabeled needs -unlabeled-frac > 0")
	}
	var sampleWeights []float32
	if *unlabeledDir != "" {
		paths, err := filepath.Glob(filepath.Join(*unlabeledDir, "*.shard"))
		if err == nil && len(paths) == 0 {
			err = fmt.Errorf("no *.shard files under %s", *unlabeledDir)
		}
		var pseudo *hep.Dataset
		if err == nil {
			pseudo, err = hep.LoadShardDataset(paths...)
		}
		if err != nil {
			return fmt.Errorf("unlabeled-dir: %w", err)
		}
		human := len(train.Labels)
		train = train.Append(pseudo)
		sampleWeights = make([]float32, len(train.Labels))
		for i := range sampleWeights {
			if i < human {
				sampleWeights[i] = 1
			} else {
				sampleWeights[i] = float32(*pseudoWeight)
			}
		}
		fmt.Printf("appended %d pseudo-labeled events at loss weight %g (%d human + %d machine)\n",
			len(pseudo.Labels), *pseudoWeight, human, len(pseudo.Labels))
	}

	model := hep.ModelConfig{Name: "heptrain", ImageSize: *size, Filters: *filters, ConvUnits: *units, Classes: 2}
	problem := hep.NewTrainingProblem(train, model, tc.Seed+1)
	problem.SampleWeights = sampleWeights
	res, err := tc.Train(problem, "hep", opt.NewAdamFull(*lr, *beta1, 0.999, 1e-8))
	if err != nil {
		return err
	}

	// Science evaluation of the trained model against the cut baseline.
	scores := hep.ScoreDataset(problem.TrainedNet(res.FinalWeights), test, 64)
	sci := hep.CompareToBaseline(hep.DefaultBaseline(), test.Events, scores, test.Labels)
	fmt.Println("science result (§VII-A):", sci)
	if sci.Improvement < 1 {
		fmt.Fprintln(os.Stderr, "warning: CNN did not beat the baseline at this scale; increase -iters/-train")
	}
	return nil
}

// subsetDataset copies events [lo, hi) of ds into a standalone dataset,
// truth records included when present.
func subsetDataset(ds *hep.Dataset, lo, hi int) *hep.Dataset {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	x, labels := ds.Batch(idx)
	out := &hep.Dataset{Images: x, Labels: labels}
	if ds.Events != nil {
		out.Events = append([]hep.Event(nil), ds.Events[lo:hi]...)
	}
	return out
}

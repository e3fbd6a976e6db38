// Command astrotrain trains the third science workload: galaxy/star-cluster
// morphology classification on synthetic survey cutouts (internal/astro).
// Its headline mode is transfer learning — the PHANGS-HST/DES pattern of
// §VIII's outlook: -init-from warm-starts the conv backbone from a trained
// HEP checkpoint store, freezes it, and trains only the fresh 3-class head.
// Frozen layers hold no gradient buffers, run no backward pass, and push
// zero gradient bytes through the parameter servers — the wire report at
// the end shows exactly the head's traffic.
//
// Usage:
//
//	astrotrain -iters 150 -train 1024                 # from scratch
//	heptrain -ckpt-dir /tmp/hep -ckpt-every 50        # train the donor
//	astrotrain -init-from /tmp/hep -iters 60          # fine-tune the head
//	astrotrain -init-from /tmp/hep -no-freeze         # warm-start, train all
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"deep15pf/internal/astro"
	"deep15pf/internal/ckpt"
	"deep15pf/internal/nn"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
	"deep15pf/internal/traincli"
)

func main() { traincli.Main("astrotrain", run) }

func run(args []string) error {
	fs := flag.NewFlagSet("astrotrain", flag.ExitOnError)
	tc := traincli.Flags(fs, "astrotrain", 64)
	trainN := fs.Int("train", 1024, "training cutouts")
	testN := fs.Int("test", 2048, "test cutouts")
	size := fs.Int("size", 16, "cutout size (match the donor's -size when fine-tuning)")
	filters := fs.Int("filters", 8, "conv filters (must match the donor when fine-tuning)")
	units := fs.Int("units", 3, "conv+pool units (must match the donor when fine-tuning)")
	lr := fs.Float64("lr", 2e-3, "ADAM learning rate")
	beta1 := fs.Float64("beta1", 0.9, "ADAM beta1")
	initFrom := fs.String("init-from", "", "warm-start the conv backbone from this checkpoint store directory (or a .d15w file)")
	noFreeze := fs.Bool("no-freeze", false, "with -init-from: leave the transferred backbone trainable instead of freezing it")
	freezeUnits := fs.Int("freeze-units", -1, "with -init-from: freeze only the first N conv units (-1 = all of them); the rest fine-tune")
	fs.Parse(args)

	if *noFreeze && *initFrom == "" {
		return fmt.Errorf("-no-freeze needs -init-from")
	}
	stop, err := tc.Start()
	if err != nil {
		return err
	}
	defer stop()

	rng := tensor.NewRNG(tc.Seed)
	r := astro.NewRenderer(*size)
	gen := astro.DefaultGenConfig()
	fmt.Printf("generating %d train + %d test cutouts (%dx%dx3 bands, 3 morphology classes)...\n",
		*trainN, *testN, *size, *size)
	train := astro.GenerateDataset(gen, r, *trainN, rng)
	test := astro.GenerateDataset(gen, r, *testN, rng)

	model := astro.ModelConfig{Name: "astrotrain", ImageSize: *size, Filters: *filters, ConvUnits: *units, Classes: astro.NumClasses}

	problem := astro.NewTrainingProblem(train, model, tc.Seed+1)
	var freeze []string
	if *initFrom != "" {
		donor, source, err := readDonor(*initFrom)
		if err != nil {
			return fmt.Errorf("-init-from: %w", err)
		}
		freeze = astro.BackboneLayerNames(*units)
		if *freezeUnits >= 0 && *freezeUnits < len(freeze) {
			freeze = freeze[:*freezeUnits]
		}
		if *noFreeze {
			freeze = nil
		}
		p, mapped, err := astro.NewTransferProblem(train, model, tc.Seed+1, donor, freeze)
		if err != nil {
			return err
		}
		problem = p
		fmt.Printf("transfer from %s: %d tensors mapped (%s)\n",
			source, len(mapped.Mapped), strings.Join(mapped.Mapped, ", "))
		if len(mapped.Unused) > 0 {
			fmt.Printf("  donor-only (dropped): %s\n", strings.Join(mapped.Unused, ", "))
		}
		if len(mapped.Extra) > 0 {
			fmt.Printf("  fresh in this model:  %s\n", strings.Join(mapped.Extra, ", "))
		}
		if len(freeze) > 0 {
			fmt.Printf("  frozen backbone: %s — gradients, backward compute and PS traffic skip these layers\n",
				strings.Join(freeze, ", "))
		} else {
			fmt.Println("  backbone left trainable (-no-freeze): warm start only")
		}
	}

	res, err := tc.Train(problem, "astro", opt.NewAdamFull(*lr, *beta1, 0.999, 1e-8))
	if err != nil {
		return err
	}
	if res.Wire.Pushes > 0 && len(freeze) > 0 {
		fmt.Println("(the wire line above is the head's traffic only: frozen layers exchanged zero gradient bytes)")
	}

	// Science evaluation: overall and per-class accuracy on held-out cutouts.
	net := problem.TrainedNet(res.FinalWeights)
	start := time.Now()
	pred := astro.PredictDataset(net, test, 64)
	var hits int
	var perClass, perClassN [astro.NumClasses]int
	for i, p := range pred {
		perClassN[test.Labels[i]]++
		if p == test.Labels[i] {
			hits++
			perClass[p]++
		}
	}
	fmt.Printf("test accuracy %.1f%% over %d cutouts (%.0f cutouts/s)\n",
		100*float64(hits)/float64(len(pred)), len(pred),
		float64(len(pred))/time.Since(start).Seconds())
	for c := 0; c < astro.NumClasses; c++ {
		frac := 0.0
		if perClassN[c] > 0 {
			frac = 100 * float64(perClass[c]) / float64(perClassN[c])
		}
		fmt.Printf("  %-10s %5.1f%%  (%d cutouts)\n", astro.ClassNames[c], frac, perClassN[c])
	}
	return nil
}

// readDonor loads the warm-start weight blobs from a checkpoint store
// directory (its newest version, with workload sanity from the manifest) or
// from a bare .d15w file, returning the blobs and a human-readable source
// description.
func readDonor(path string) ([]nn.WeightBlob, string, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, "", err
	}
	if !st.IsDir() {
		blobs, err := nn.ReadWeightBlobsFile(path)
		return blobs, path, err
	}
	store, err := ckpt.Open(path)
	if err != nil {
		return nil, "", err
	}
	m, ok, err := store.Latest()
	if err != nil {
		return nil, "", err
	}
	if !ok {
		return nil, "", fmt.Errorf("checkpoint store %s holds no complete version", path)
	}
	blobs, err := nn.ReadWeightBlobsFile(store.WeightsPath(m.Version))
	if err != nil {
		return nil, "", fmt.Errorf("%s v%d: %w", path, m.Version, err)
	}
	desc := fmt.Sprintf("%s v%d (step %d", path, m.Version, m.Step)
	if m.Arch != "" {
		desc += ", arch " + m.Arch
	}
	if m.Problem != "" {
		desc += ", problem " + m.Problem
	}
	return blobs, desc + ")", nil
}

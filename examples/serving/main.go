// Serving quickstart: train the HEP classifier at laptop scale, checkpoint
// it, load the checkpoint back through the serve.Registry, and run
// concurrent requests through the dynamically-batching inference server —
// the smallest tour of the train → checkpoint → serve pipeline.
//
//	go run ./examples/serving
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"deep15pf/internal/core"
	"deep15pf/internal/hep"
	"deep15pf/internal/nn"
	"deep15pf/internal/opt"
	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

func main() {
	rng := tensor.NewRNG(1)

	// 1. Train the classifier briefly (see examples/quickstart for the
	//    training-side walkthrough) and checkpoint it in the D15W format.
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(8), 256, 0.5, rng)
	model := hep.ModelConfig{Name: "serving-example", ImageSize: 8, Filters: 8, ConvUnits: 2, Classes: 2}
	problem := hep.NewTrainingProblem(ds, model, 7)
	res := core.TrainSync(problem, core.Config{
		Groups: 1, WorkersPerGroup: 1, GroupBatch: 32, Iterations: 30,
		Solver: opt.NewAdam(2e-3), Seed: 1,
	})
	path := filepath.Join(os.TempDir(), "serving-example.d15w")
	if err := nn.SaveFile(path, problem.TrainedNet(res.FinalWeights).Params()); err != nil {
		panic(err)
	}
	fmt.Printf("trained to loss %.4f, checkpointed to %s\n", res.FinalLoss, path)

	// 2. Load the checkpoint by architecture name. The registry rebuilds
	//    the network, validates every parameter blob, and mints
	//    per-worker inference replicas with gradients released.
	registry := serve.DefaultRegistry()
	serve.RegisterHEP(registry, "serving-example", model)
	lm, err := registry.Load("serving-example", path, serve.Float32)
	if err != nil {
		panic(err)
	}
	fmt.Printf("loaded %s: %d-float input, %.1f KiB parameters\n",
		lm.ModelArch, lm.InShape()[0]*lm.InShape()[1]*lm.InShape()[2], float64(lm.ParamBytes())/1024)

	// 3. Serve. Individual Submits coalesce into batches of up to 16
	//    under a 1ms linger; each caller gets its own logits back.
	srv, err := serve.NewServer(lm, serve.Config{MaxBatch: 16, MaxLinger: time.Millisecond})
	if err != nil {
		panic(err)
	}
	defer srv.Close()

	per := 3 * 8 * 8
	var wg sync.WaitGroup
	scores := make([]float64, 8)
	for i := range scores {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := tensor.FromSlice(ds.Images.Data[i*per:(i+1)*per], 3, 8, 8)
			logits, err := srv.Submit(x)
			if err != nil {
				panic(err)
			}
			scores[i] = hep.SignalScore(logits.Reshape(1, 2))[0]
		}(i)
	}
	wg.Wait()
	for i, s := range scores {
		fmt.Printf("event %d: P(signal) = %.3f (label %d)\n", i, s, ds.Labels[i])
	}
	fmt.Println()
	fmt.Println(srv.Stats())
}

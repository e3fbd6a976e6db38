package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"deep15pf/internal/astro"
	"deep15pf/internal/climate"
	"deep15pf/internal/core"
	"deep15pf/internal/hep"
	"deep15pf/internal/netserve"
	"deep15pf/internal/nn"
	"deep15pf/internal/opt"
	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

// runZoo is the three-science model zoo: train the hep demo classifier,
// fine-tune the astro classifier's head from that very checkpoint (the
// frozen backbone exchanges zero gradient bytes), stand up a tiny climate
// detector, and serve all three workloads concurrently from one registry
// through the routed network tier — two in-process backends each holding
// all three engines, per-model routing, and an in-process make-before-break
// rolling restart mid-load. Exits nonzero if a single request is dropped.
func runZoo(demo hep.ModelConfig, events, iters int, lr float64, requests, clients int, seed uint64) {
	// --- Model 1: the hep demo classifier (also the astro donor). ---
	hepPath := trainDemo(demo, events, iters, lr, seed)

	// --- Model 2: astro, fine-tuned from the hep checkpoint. ---
	acfg := astro.ModelConfig{Name: "astro-demo", ImageSize: demo.ImageSize,
		Filters: demo.Filters, ConvUnits: demo.ConvUnits, Classes: astro.NumClasses}
	astroPath := finetuneAstroDemo(acfg, hepPath, iters, seed)

	// --- Model 3: a tiny climate detector, briefly trained. ---
	ccfg := climate.ModelConfig{Name: "climate-demo", Size: 16,
		EncChannels: []int{4, 6}, EncStrides: []int{2, 2},
		DecChannels: []int{4, climate.NumChannels}, WithDecoder: true}
	climatePath := trainClimateDemo(ccfg, seed)

	// --- One registry, three workloads. ---
	reg := serve.NewRegistry()
	serve.RegisterHEP(reg, demo.Name, demo)
	serve.RegisterAstro(reg, acfg.Name, acfg)
	serve.RegisterClimate(reg, ccfg.Name, ccfg)
	models := map[string]*serve.LoadedModel{}
	for _, m := range []struct{ arch, path string }{
		{demo.Name, hepPath}, {acfg.Name, astroPath}, {ccfg.Name, climatePath},
	} {
		lm, err := reg.Load(m.arch, m.path, serve.Float32)
		if err != nil {
			fatalf("zoo: load %s: %v", m.arch, err)
		}
		models[m.arch] = lm
	}
	fmt.Println("\nzoo registry:")
	for _, mi := range reg.Models() {
		fmt.Printf("  %-14s problem %-8s input %v\n", mi.Arch, mi.Problem, models[mi.Arch].InShape())
	}

	// --- Two backends, each serving all three models. ---
	ns1, eng1 := startZooBackend(models)
	ns2, eng2 := startZooBackend(models)
	r, err := netserve.NewRouter("127.0.0.1:0", []string{ns1.Addr(), ns2.Addr()}, netserve.RouterConfig{})
	if err != nil {
		fatalf("zoo: router: %v", err)
	}
	defer r.Close()
	c, err := netserve.Dial(r.Addr())
	if err != nil {
		fatalf("zoo: %v", err)
	}
	defer c.Close()
	fmt.Printf("\nzoo fleet: 2 backends x 3 models behind router %s\n", r.Addr())

	archs := make([]string, 0, 3)
	for _, mi := range reg.Models() {
		archs = append(archs, mi.Arch)
	}
	perModel := requests / len(archs)
	perClients := clients / len(archs)
	if perClients < 4 {
		perClients = 4
	}
	inputs := map[string][]*serve.LoadInput{}
	for _, arch := range archs {
		inputs[arch] = zooInputs(models[arch], 64, seed+7)
		// Warm every backend's plan buckets for this model.
		if res := serve.RunClosedLoop(c.Bind(arch), inputs[arch], perClients, 2*perClients); res.Err != nil {
			fatalf("zoo: warmup %s: %v", arch, res.Err)
		}
	}

	// --- Concurrent load on all three models, restart mid-load. ---
	fmt.Printf("--- %d requests/model, %d clients/model, rolling restart mid-load ---\n",
		perModel, perClients)
	results := map[string]serve.LoadResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, arch := range archs {
		wg.Add(1)
		go func(arch string) {
			defer wg.Done()
			res := serve.RunClosedLoop(c.Bind(arch), inputs[arch], perClients, perModel)
			mu.Lock()
			results[arch] = res
			mu.Unlock()
		}(arch)
	}

	// In-process make-before-break: bring a third backend up, add it to the
	// dispatch set, then drain the first (goaway; in-flights complete) and
	// only then close its engines.
	time.Sleep(50 * time.Millisecond) // load is flowing on all three models
	ns3, eng3 := startZooBackend(models)
	if err := r.AddBackend(ns3.Addr()); err != nil {
		fatalf("zoo: add backend: %v", err)
	}
	ns1.Drain(15 * time.Second)
	for _, e := range eng1 {
		e.Close()
	}
	fmt.Printf("rolled backend %s out, %s in\n", ns1.Addr(), ns3.Addr())
	wg.Wait()
	defer func() {
		for _, pair := range []struct {
			ns   *netserve.Server
			engs map[string]*serve.Server
		}{{ns2, eng2}, {ns3, eng3}} {
			pair.ns.Close()
			for _, e := range pair.engs {
				e.Close()
			}
		}
	}()

	// --- Per-model report: client-observed quantiles + router counters. ---
	fmt.Printf("\n%-14s %9s %8s %9s %10s %10s %10s %8s %6s\n",
		"model", "requests", "dropped", "req/s", "p50", "p95", "p99", "routed", "shed")
	dropped := 0
	for _, arch := range archs {
		res := results[arch]
		if res.Err != nil {
			fatalf("zoo: %s load: %v", arch, res.Err)
		}
		dropped += res.Dropped
		routed, hedged, shed := r.ModelCounts(arch)
		fmt.Printf("%-14s %9d %8d %9.0f %10v %10v %10v %8d %6d\n",
			arch, res.Requests, res.Dropped, res.Throughput,
			res.P50.Round(time.Microsecond), res.P95.Round(time.Microsecond),
			res.P99.Round(time.Microsecond), routed+hedged, shed)
	}
	// Engine-side per-model accounting from the surviving backends' labelled
	// instruments (serve.requests.model.<arch>), summed across the fleet.
	fmt.Println("\nbackend-side per-model requests (serve.requests.model.* across live backends):")
	for _, arch := range archs {
		var n int64
		for _, engs := range []map[string]*serve.Server{eng2, eng3} {
			n += engs[arch].Metrics().Snapshot().Counters["serve.requests.model."+arch]
		}
		fmt.Printf("  %-14s %d\n", arch, n)
	}

	if dropped > 0 {
		fatalf("zoo rolling restart dropped %d requests", dropped)
	}
	fmt.Println("\nzoo rolling restart: zero dropped requests")
}

// startZooBackend mints one serving engine per loaded model and puts all of
// them behind a single network listener on an ephemeral loopback port.
func startZooBackend(models map[string]*serve.LoadedModel) (*netserve.Server, map[string]*serve.Server) {
	engines := map[string]*serve.Server{}
	for arch, lm := range models {
		eng, err := serve.NewServer(lm, serve.Config{MaxBatch: 16, MaxLinger: time.Millisecond, Workers: 2})
		if err != nil {
			fatalf("zoo: engine %s: %v", arch, err)
		}
		engines[arch] = eng
	}
	ns, err := netserve.NewServer("127.0.0.1:0", engines, netserve.ServerConfig{})
	if err != nil {
		fatalf("zoo: backend: %v", err)
	}
	return ns, engines
}

// finetuneAstroDemo warm-starts the astro classifier's conv backbone from
// the hep checkpoint, freezes it, trains the fresh 3-class head, and
// checkpoints the result — the transfer-learning leg of the zoo.
func finetuneAstroDemo(cfg astro.ModelConfig, donorPath string, iters int, seed uint64) string {
	donor, err := nn.ReadWeightBlobsFile(donorPath)
	if err != nil {
		fatalf("zoo: donor: %v", err)
	}
	rng := tensor.NewRNG(seed + 20)
	train := astro.GenerateDataset(astro.DefaultGenConfig(), astro.NewRenderer(cfg.ImageSize), 128, rng)
	freeze := astro.BackboneLayerNames(cfg.ConvUnits)
	problem, mapped, err := astro.NewTransferProblem(train, cfg, seed+21, donor, freeze)
	if err != nil {
		fatalf("zoo: transfer: %v", err)
	}
	fmt.Printf("fine-tuning %s: %d tensors from the hep checkpoint, %d frozen conv layers, head-only training\n",
		cfg.Name, len(mapped.Mapped), len(freeze))
	res := core.TrainSync(problem, core.Config{
		Groups: 1, WorkersPerGroup: 1, GroupBatch: 32, Iterations: iters,
		Solver: opt.NewAdamFull(1e-2, 0.9, 0.999, 1e-8), Seed: seed,
	})
	net := problem.TrainedNet(res.FinalWeights)
	fmt.Printf("fine-tuned: loss %.4f, train accuracy %.1f%% (frozen layers exchanged zero gradient bytes)\n",
		res.FinalLoss, 100*astro.EvalAccuracy(net, train, 32))
	path := filepath.Join(os.TempDir(), "deepserve-zoo-astro.d15w")
	if err := nn.SaveFile(path, net.Params()); err != nil {
		fatalf("zoo: checkpoint astro: %v", err)
	}
	return path
}

// trainClimateDemo trains the tiny climate detector for a handful of steps
// (enough for genuinely trained weights, not accuracy) and checkpoints it.
func trainClimateDemo(cfg climate.ModelConfig, seed uint64) string {
	rng := tensor.NewRNG(seed + 30)
	ds := climate.GenerateDataset(climate.DefaultGenConfig(cfg.Size), 32, rng)
	problem := climate.NewTrainingProblem(ds, cfg, seed+31)
	fmt.Printf("training %s: %d fields, 6 iterations (%dx%dx%d input)\n",
		cfg.Name, 32, cfg.Size, cfg.Size, climate.NumChannels)
	res := core.TrainSync(problem, core.Config{
		Groups: 1, WorkersPerGroup: 1, GroupBatch: 8, Iterations: 6,
		Solver: opt.NewAdam(1e-3), Seed: seed,
	})
	path := filepath.Join(os.TempDir(), "deepserve-zoo-climate.d15w")
	if err := nn.SaveFile(path, problem.TrainedNet(res.FinalWeights).Params()); err != nil {
		fatalf("zoo: checkpoint climate: %v", err)
	}
	return path
}

// zooInputs renders n workload-appropriate request tensors for one loaded
// model: hep events for the hep input shape, astro cutouts for astro's,
// Gaussian fields for the climate detector.
func zooInputs(lm *serve.LoadedModel, n int, seed uint64) []*serve.LoadInput {
	in := lm.InShape()
	rng := tensor.NewRNG(seed)
	inputs := make([]*serve.LoadInput, n)
	switch {
	case lm.ModelArch == "astro-demo" && len(in) == 3:
		ds := astro.GenerateDataset(astro.DefaultGenConfig(), astro.NewRenderer(in[1]), n, rng)
		per := in[0] * in[1] * in[2]
		for i := range inputs {
			inputs[i] = &serve.LoadInput{X: tensor.FromSlice(ds.Images.Data[i*per:(i+1)*per], in...)}
		}
	case len(in) == 3 && in[0] == hep.Channels:
		ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(in[1]), n, 0.5, rng)
		per := in[0] * in[1] * in[2]
		for i := range inputs {
			inputs[i] = &serve.LoadInput{X: tensor.FromSlice(ds.Images.Data[i*per:(i+1)*per], in...)}
		}
	default:
		for i := range inputs {
			x := tensor.New(in...)
			rng.FillNorm(x, 0, 1)
			inputs[i] = &serve.LoadInput{X: x}
		}
	}
	return inputs
}

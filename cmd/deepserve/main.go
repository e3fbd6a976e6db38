// Command deepserve is the serving-side counterpart of heptrain: it loads a
// trained D15W checkpoint through the serve.Registry and drives a
// closed-loop synthetic load through the dynamically-batching inference
// server, reporting throughput, tail latency, batch occupancy and served
// flop rate. With no -checkpoint it first trains a small HEP classifier so
// the demo is self-contained end to end: train → checkpoint → registry →
// batched serving.
//
// It has three modes, one per job:
//
//   - the batching study (default): the same load once through a
//     batch-size-1 server (every request runs alone — the no-batching
//     baseline) and once through the dynamic batcher, printing both
//     snapshots and the speedup. Dynamic batching amortises the fixed
//     per-request cost (queue hops, scheduling, per-pass allocations) over
//     the batch; the win is largest for small models at high request rates
//     and shrinks as per-sample compute grows (try -size 16 -filters 8
//     -units 3);
//   - -listen: serve the model over TCP (D15R, internal/netserve) until
//     SIGTERM, then drain every in-flight request and exit;
//   - -connect: drive the same load generator against a remote backend or
//     router.
//
// Fleets, routers, hedging and rolling restarts are internal/netserve's;
// its tests run them across real processes.
//
// Usage:
//
//	deepserve                              # train a demo model, compare batch=1 vs batched
//	deepserve -requests 50000 -batch 64    # bigger study
//	deepserve -int8                        # serve the calibrated int8 datapath (HEP and astro)
//	deepserve -arch hep-small -checkpoint model.d15w
//	deepserve -listen :7015                # backend mode: serve over TCP, drain on SIGTERM
//	deepserve -connect host:7015           # drive load against a remote endpoint
//	deepserve -connect host:7015 -openloop 3000   # Poisson arrivals at 3000 req/s
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"deep15pf/internal/core"
	"deep15pf/internal/hep"
	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/opt"
	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

// liveMetrics points the periodic -metrics-every dump at whichever
// server is currently under load.
var liveMetrics atomic.Pointer[obs.Registry]

func main() {
	arch := flag.String("arch", "", "registered architecture to serve (required with -checkpoint)")
	checkpoint := flag.String("checkpoint", "", "D15W checkpoint path (empty = train a demo model first)")
	size := flag.Int("size", 4, "demo model image size (trigger-scale default; batching wins shrink as size grows)")
	filters := flag.Int("filters", 16, "demo model conv filters")
	units := flag.Int("units", 2, "demo model conv+pool units")
	trainEvents := flag.Int("train-events", 512, "demo training events")
	trainIters := flag.Int("train-iters", 60, "demo training iterations")
	lr := flag.Float64("lr", 2e-3, "demo training ADAM learning rate")
	requests := flag.Int("requests", 12000, "requests to drive through each server")
	clients := flag.Int("clients", 64, "concurrent closed-loop clients")
	batch := flag.Int("batch", 32, "max dynamic batch size")
	linger := flag.Duration("linger", 500*time.Microsecond, "max linger of a partial batch (negative = dispatch immediately)")
	workers := flag.Int("workers", 0, "worker replicas (0 = GOMAXPROCS)")
	int8Mode := flag.Bool("int8", false, "serve the calibrated int8 datapath (HEP and astro architectures)")
	compare := flag.Bool("compare", true, "also run the batch-size-1 baseline and report the speedup")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON timeline (per-worker Queue/Batch/Infer lanes) to this file")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and /metrics on this address (e.g. localhost:6060)")
	metricsEvery := flag.Int("metrics-every", 0, "print a one-line metrics dump every N seconds (0 = off)")
	listen := flag.String("listen", "", "backend mode: serve the model over TCP on this address (prints the listen banner, drains on SIGTERM)")
	connect := flag.String("connect", "", "client mode: drive load against this remote D15R endpoint instead of an in-process server")
	openloop := flag.Float64("openloop", 0, "open-loop (Poisson) arrival rate in req/s; 0 = closed-loop clients")
	kernels := flag.String("kernels", "auto", "compute kernel ISA: auto|scalar|avx2|avx512 (float results are bitwise identical across choices)")
	seed := flag.Uint64("seed", 42, "seed")
	flag.Parse()

	if err := tensor.SetKernels(*kernels); err != nil {
		fatalf("%v", err)
	}

	start := time.Now()
	if *debugAddr != "" {
		dbg, err := obs.StartDebugServer(*debugAddr, nil)
		if err != nil {
			fatalf("%v", err)
		}
		defer dbg.Close()
		fmt.Printf("debug server on http://%s/debug/pprof (runtime metrics at /metrics)\n", dbg.Addr())
	}
	stopDump := obs.Periodic(time.Duration(*metricsEvery)*time.Second, func() {
		fmt.Println("metrics:", obs.MetricsLine(start, liveMetrics.Load()))
	})
	defer stopDump()

	registry := serve.DefaultRegistry()
	demoCfg := hep.ModelConfig{Name: "hep-demo", ImageSize: *size, Filters: *filters, ConvUnits: *units, Classes: 2}
	serve.RegisterHEP(registry, "hep-demo", demoCfg)

	if *connect != "" {
		model := *arch
		if model == "" {
			model = "hep-demo"
		}
		runConnect(*connect, model, *size, *openloop, *requests, *clients, *seed)
		return
	}

	path := *checkpoint
	archName := *arch
	if path == "" {
		if archName != "" && archName != "hep-demo" {
			fatalf("-arch %q needs -checkpoint (only hep-demo can self-train)", archName)
		}
		archName = "hep-demo"
		path = trainDemo(demoCfg, *trainEvents, *trainIters, *lr, *seed)
	} else if archName == "" {
		fatalf("-checkpoint needs -arch; registered: %v", registry.Archs())
	}

	prec := serve.Float32
	if *int8Mode {
		prec = serve.Int8
	}
	lm, err := registry.Load(archName, path, prec)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("loaded %s (%s): input %v -> output %v, %.2f MiB parameters, %s/sample forward\n\n",
		lm.ModelArch, lm.Prec, lm.InShape(), lm.OutShape(),
		float64(lm.ParamBytes())/(1<<20), serve.FormatFlops(float64(lm.FwdFLOPsPerSample())))

	if *int8Mode {
		// Freeze activation scales from a sample of the request
		// distribution: an int8 model mints serving replicas only after.
		calIn := requestPool(lm, 32, *seed+11)
		in := lm.InShape()
		per := 1
		for _, d := range in {
			per *= d
		}
		xb := tensor.New(append([]int{len(calIn)}, in...)...)
		for i, inp := range calIn {
			copy(xb.Data[i*per:(i+1)*per], inp.X.Data)
		}
		if err := lm.Calibrate(xb); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("int8 activation scales calibrated over %d samples (%s kernels)\n", len(calIn), tensor.KernelISA())
		reportInt8Agreement(registry, archName, path, lm, *seed)
	}

	cfg := serve.Config{MaxBatch: *batch, MaxLinger: *linger, Workers: *workers}
	if *listen != "" {
		runListen(lm, archName, *listen, cfg)
		return
	}

	inputs := requestPool(lm, 256, *seed+3)
	// The tracer rides only on the dynamic-batching run: lanes are named
	// per worker index, so sharing one tracer across two servers would
	// interleave their spans.
	if *traceOut != "" {
		cfg.Trace = obs.NewTracer(0)
	}

	var base serve.Stats
	if *compare {
		fmt.Printf("--- baseline: batch size 1, %d requests, %d clients ---\n", *requests, *clients)
		base = runLoad(lm, serve.Config{MaxBatch: 1, Workers: *workers}, inputs, *clients, *requests, *openloop, *seed)
		fmt.Println()
	}

	fmt.Printf("--- dynamic batching: max batch %d, linger %v, %d requests, %d clients ---\n",
		*batch, *linger, *requests, *clients)
	dyn := runLoad(lm, cfg, inputs, *clients, *requests, *openloop, *seed)
	if cfg.Trace != nil {
		lanes := cfg.Trace.Snapshot()
		if err := cfg.Trace.WriteTraceFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "deepserve: trace:", err)
		} else {
			fmt.Printf("trace: %d lanes written to %s (open in chrome://tracing or ui.perfetto.dev)\n",
				len(lanes), *traceOut)
		}
	}

	if *compare {
		speedup := dyn.Throughput / base.Throughput
		fmt.Printf("\nbatching speedup: %.2fx  (%.0f -> %.0f req/s)  p99 %v -> %v\n",
			speedup, base.Throughput, dyn.Throughput,
			base.P99.Round(time.Microsecond), dyn.P99.Round(time.Microsecond))
		if speedup < 2 {
			fmt.Println("note: speedup under 2x — per-sample compute dominates at this model size; shrink the model or raise -clients")
		}
	}
}

// trainDemo trains the demo classifier synchronously (quickstart-style),
// evaluates it on held-out events, and checkpoints it to a temp file.
func trainDemo(cfg hep.ModelConfig, events, iters int, lr float64, seed uint64) string {
	rng := tensor.NewRNG(seed)
	fmt.Printf("training %s: %d events, %d iterations (%dx%dx3 images, %d filters)\n",
		cfg.Name, events, iters, cfg.ImageSize, cfg.ImageSize, cfg.Filters)
	r := hep.NewRenderer(cfg.ImageSize)
	train := hep.GenerateDataset(hep.DefaultGenConfig(), r, events, 0.5, rng)
	test := hep.GenerateDataset(hep.DefaultGenConfig(), r, events, 0.5, rng)

	problem := hep.NewTrainingProblem(train, cfg, seed+1)
	res := core.TrainSync(problem, core.Config{
		Groups: 1, WorkersPerGroup: 1, GroupBatch: 32, Iterations: iters,
		Solver: opt.NewAdam(lr), Seed: seed,
	})
	fmt.Printf("trained: loss %.4f -> %.4f\n", res.Stats[0].Loss, res.FinalLoss)

	net := problem.TrainedNet(res.FinalWeights)
	scores := hep.ScoreDataset(net, test, 64)
	correct := 0
	for i, s := range scores {
		if (s > 0.5) == (test.Labels[i] == 1) {
			correct++
		}
	}
	fmt.Printf("held-out accuracy: %.1f%% over %d events\n", 100*float64(correct)/float64(len(scores)), len(scores))

	path := filepath.Join(os.TempDir(), "deepserve-demo.d15w")
	if err := nn.SaveFile(path, net.Params()); err != nil {
		fatalf("checkpoint: %v", err)
	}
	fmt.Printf("checkpointed to %s\n\n", path)
	return path
}

// requestPool renders n per-sample request tensors: synthetic HEP events
// for 3-channel models, Gaussian fields otherwise (climate).
func requestPool(lm *serve.LoadedModel, n int, seed uint64) []*serve.LoadInput {
	in := lm.InShape()
	outLen := 1
	for _, d := range lm.OutShape() {
		outLen *= d
	}
	check := func(y *tensor.Tensor) error {
		if y.Len() != outLen {
			return fmt.Errorf("response has %d values, want %d", y.Len(), outLen)
		}
		return nil
	}
	rng := tensor.NewRNG(seed)
	inputs := make([]*serve.LoadInput, n)
	if len(in) == 3 && in[0] == hep.Channels {
		ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(in[1]), n, 0.5, rng)
		per := in[0] * in[1] * in[2]
		for i := range inputs {
			inputs[i] = &serve.LoadInput{X: tensor.FromSlice(ds.Images.Data[i*per:(i+1)*per], in...), Check: check}
		}
		return inputs
	}
	for i := range inputs {
		x := tensor.New(in...)
		rng.FillNorm(x, 0, 1)
		inputs[i] = &serve.LoadInput{X: x, Check: check}
	}
	return inputs
}

// runLoad starts a server, saturates it with the closed-loop generator, and
// prints and returns its stats snapshot, including whole-process heap
// allocations per request — the number the compiled-plan datapath exists
// to drive toward the per-batch floor.
func runLoad(lm *serve.LoadedModel, cfg serve.Config, inputs []*serve.LoadInput, clients, total int, rate float64, seed uint64) serve.Stats {
	s, err := serve.NewServer(lm, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	defer s.Close()
	liveMetrics.Store(s.Metrics()) // the periodic dump follows the active server
	// Warm plan buckets and steady-state pools before measuring.
	warm := total / 10
	if warm > 2000 {
		warm = 2000
	}
	if warm > 0 {
		if res := serve.RunClosedLoop(s, inputs, clients, warm); res.Err != nil {
			fatalf("warmup run: %v", res.Err)
		}
		s.ResetStats() // quantiles must not include plan-compile spikes
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res := driveLoad(s, inputs, clients, total, rate, seed)
	if res.Err != nil {
		fatalf("load run: %v", res.Err)
	}
	runtime.ReadMemStats(&after)
	st := s.Stats()
	fmt.Println(st)
	if rate > 0 {
		printLoadResult(res) // open loop: client-observed tail is the point
	}
	fmt.Printf("  allocs/request %.1f (whole process, steady state)\n",
		float64(after.Mallocs-before.Mallocs)/float64(total))
	return st
}

// reportInt8Agreement compares int8 logits against the float32 path over
// the request pool — the convergence-relevance check the paper's §VIII-A
// quantisation outlook asks for, applied to serving.
func reportInt8Agreement(registry *serve.Registry, arch, path string, lm8 *serve.LoadedModel, seed uint64) {
	lm32, err := registry.Load(arch, path, serve.Float32)
	if err != nil {
		fatalf("%v", err)
	}
	r32, err := lm32.NewReplica()
	if err != nil {
		fatalf("%v", err)
	}
	r8, err := lm8.NewReplica()
	if err != nil {
		fatalf("%v", err)
	}
	inputs := requestPool(lm32, 128, seed+7)
	in := append([]int{1}, lm32.InShape()...)
	agree, total := 0, 0
	var maxDelta float64
	for _, inp := range inputs {
		x := tensor.FromSlice(inp.X.Data, in...)
		y32 := r32.Infer(x)
		y8 := r8.Infer(x)
		if argmax(y32.Data) == argmax(y8.Data) {
			agree++
		}
		total++
		for i := range y32.Data {
			d := float64(y32.Data[i] - y8.Data[i])
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				maxDelta = d
			}
		}
	}
	fmt.Printf("int8 vs float32: top-1 agreement %.1f%% over %d inputs, max |Δlogit| %.4f\n\n",
		100*float64(agree)/float64(total), total, maxDelta)
}

func argmax(v []float32) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "deepserve: "+format+"\n", args...)
	os.Exit(1)
}

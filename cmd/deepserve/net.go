package main

import (
	"fmt"
	"os"
	"time"

	"deep15pf/internal/hep"
	"deep15pf/internal/netserve"
	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

// runListen is backend mode: put the loaded model on the network and
// serve until SIGTERM, then drain (goaway handshake, every in-flight
// request answered) and exit. The listen banner on stdout is the
// handshake a fleet parent (netserve.StartProc) scans for the ephemeral
// port.
func runListen(lm *serve.LoadedModel, model, addr string, cfg serve.Config) {
	eng, err := serve.NewServer(lm, cfg)
	if err != nil {
		fatalf("%v", err)
	}
	engines := map[string]*serve.Server{model: eng}
	ns, err := netserve.NewServer(addr, engines, netserve.ServerConfig{})
	if err != nil {
		fatalf("%v", err)
	}
	liveMetrics.Store(eng.Metrics())
	ns.DrainOnSignal(os.Stdout, engines, 15*time.Second)
	fmt.Printf("drained: %s\n", eng.Stats())
}

// runConnect is client mode: drive the load generator against a remote
// D15R endpoint (a backend or a router) exactly as it drives an
// in-process server.
func runConnect(addr, model string, size int, rate float64, requests, clients int, seed uint64) {
	c, err := netserve.Dial(addr)
	if err != nil {
		fatalf("%v", err)
	}
	defer c.Close()
	inputs := buildNetInputs(size, 256, seed+3)
	mode := "closed-loop"
	if rate > 0 {
		mode = fmt.Sprintf("open-loop %.0f req/s", rate)
	}
	fmt.Printf("--- %s against %s, model %q, %d requests, %d clients ---\n", mode, addr, model, requests, clients)
	res := driveLoad(c.Bind(model), inputs, clients, requests, rate, seed)
	printLoadResult(res)
	if res.Err != nil {
		fatalf("load run: %v", res.Err)
	}
	if res.Dropped > 0 {
		fatalf("%d requests dropped", res.Dropped)
	}
}

// driveLoad picks the arrival process: closed loop (each client submits
// the moment its last request completes) or open loop (Poisson arrivals
// at rate req/s — the honest tail-latency workload).
func driveLoad(s serve.Submitter, inputs []*serve.LoadInput, clients, total int, rate float64, seed uint64) serve.LoadResult {
	if rate > 0 {
		return serve.RunOpenLoop(s, inputs, rate, total, seed)
	}
	return serve.RunClosedLoop(s, inputs, clients, total)
}

func printLoadResult(res serve.LoadResult) {
	fmt.Printf("  client-observed: %d completed, %d dropped, %.0f req/s, p50 %v  p95 %v  p99 %v\n",
		res.Requests, res.Dropped, res.Throughput,
		res.P50.Round(time.Microsecond), res.P95.Round(time.Microsecond), res.P99.Round(time.Microsecond))
}

// buildNetInputs renders HEP-shaped request tensors locally — client mode
// has no loaded model to take shapes from, only the flags.
func buildNetInputs(size, n int, seed uint64) []*serve.LoadInput {
	rng := tensor.NewRNG(seed)
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(size), n, 0.5, rng)
	per := hep.Channels * size * size
	inputs := make([]*serve.LoadInput, n)
	for i := range inputs {
		inputs[i] = &serve.LoadInput{X: tensor.FromSlice(ds.Images.Data[i*per:(i+1)*per], hep.Channels, size, size)}
	}
	return inputs
}

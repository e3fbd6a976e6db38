package main

import "encoding/json"

// metricSpec names one metric. The end-to-end table must equal
// BENCHMARK.json's end_to_end list and the per-layer table its per_layer
// list (a test holds them together). Which end-to-end metric a per-layer
// metric should move is written down in README.md.
type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the base median it may worsen by
	// On lists the workloads that measure the metric. A per-layer metric
	// reads 0 on every other workload: the layer did no work there.
	On []string
}

const (
	wlHep     = "train_hep_sync"
	wlClimate = "train_climate_hybrid"
	wlServe   = "serve_fleet"
	wlBulk    = "score_bulk"
)

var (
	allWorkloads   = []string{wlHep, wlClimate, wlServe, wlBulk}
	trainWorkloads = []string{wlHep, wlClimate}
)

// workloadWhy is the one-line reason each workload exists; BENCHMARK.json
// carries the same lines.
var workloadWhy = map[string]string{
	wlHep:     "paper's supervised HEP task, synchronous W=2: conv kernels are ~90% of the time, with random shard reads and async checkpoints beside compute",
	wlClimate: "paper's semi-supervised climate task, hybrid G=2: 1.5 MB of gradients per update through 10 parameter servers at batch 4, deconv and branching plans",
	wlServe:   "tiny model behind router and two backends over loopback TCP: compute ~0, so framing, splice, socket hops and batcher linger do the work",
	wlBulk:    "forward-only scoring of 4096 events at batch 256, fp32 then int8: the training kernels used differently, sequential shard reads, u8*s8 GEMM",
}

// endToEnd is what a user of the system sees. Every workload reports every
// one; what a metric means on a workload is fixed in README.md:
//
//	samples_per_s      trained samples/s (train_*), checked responses/s in
//	                   the closed loop (serve_fleet), fp32 scored samples/s
//	                   (score_bulk)
//	time_to_result_ms  how long one result takes: one update (train_*), one
//	                   request at p50 from its due time in the open loop
//	                   (serve_fleet), one int8 pass over the whole set
//	                   (score_bulk)
var endToEnd = []metricSpec{
	{Name: "samples_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: allWorkloads},
	{Name: "time_to_result_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: allWorkloads},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, On: allWorkloads},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, On: allWorkloads},
}

var specByName = func() map[string]metricSpec {
	m := map[string]metricSpec{}
	for _, list := range [][]metricSpec{endToEnd, perLayer} {
		for _, s := range list {
			if _, dup := m[s.Name]; dup {
				panic("benchmark: duplicate metric " + s.Name)
			}
			m[s.Name] = s
		}
	}
	return m
}()

// runSeconds is how long the driver lets one run measure.
const runSeconds = 25

// contractJSON renders BENCHMARK.json from the tables above, so the file at
// the repository root and the program cannot drift apart (a test compares
// them).
func contractJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, name := range allWorkloads {
		out.Workloads = append(out.Workloads, wl{name, workloadWhy[name]})
	}
	for _, s := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e{s.Name, s.Unit, s.Better, s.Bound})
	}
	for _, s := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{s.Name, s.Unit, s.Better})
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(buf, '\n')
}

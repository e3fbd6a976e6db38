package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

// summary is one end-to-end metric on one workload across a suite: each
// untraced child run's reported value, their median, which a comparison
// reads, and their quartiles, which say how far to trust it.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Runs   []float64 `json:"runs"`
}

// suiteWorkload is one workload's part of a suite result.
type suiteWorkload struct {
	Name      string                 `json:"name"`
	Why       string                 `json:"why"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	EndToEnd  map[string]*summary    `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
	Checks    []check                `json:"checks"`
	Info      map[string]string      `json:"info,omitempty"`
}

// suiteResult is what `go run ./benchmark` writes as results.json and what
// -compare reads.
type suiteResult struct {
	Host      hostInfo        `json:"host"`
	Seed      uint64          `json:"seed"`
	Seconds   float64         `json:"seconds"`
	Smoke     bool            `json:"smoke,omitempty"`
	Workloads []suiteWorkload `json:"workloads"`
}

// suiteRuns is how many untraced child runs the suite makes per workload.
const suiteRuns = 5

// suite runs every workload, each run in a fresh child process pinned to
// two CPUs: suiteRuns untraced runs for the end-to-end metrics, then one
// traced run for the per-layer ones. It prints every metric and writes
// results.json and the traces under out.
func suite(seed uint64, seconds float64, smoke bool, out string) int {
	if out == "" {
		out = filepath.Join(".bench_build", "out")
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		fatal("%v", err)
	}
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	res := suiteResult{Host: readHost(kernelISA()), Seed: seed, Seconds: seconds, Smoke: smoke}
	res.Host.GoMaxProcs = 2 // what every child is pinned to
	ok := true
	for _, name := range allWorkloads {
		sw := suiteWorkload{Name: name, Why: workloadWhy[name], Correct: true, EndToEnd: map[string]*summary{}, Info: map[string]string{}}
		for run := 0; run <= suiteRuns; run++ {
			traced := run == suiteRuns
			dir := filepath.Join(out, name, fmt.Sprintf("run%d", run))
			if traced {
				dir = filepath.Join(out, name, "traced")
			}
			rr, err := spawn(self, name, seed, seconds, traced, smoke, dir)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				sw.Correct, ok = false, false
				continue
			}
			sw.merge(rr)
		}
		for _, s := range sw.EndToEnd {
			s.Q1, s.Median, s.Q3 = quartiles(s.Runs)
		}
		ok = ok && sw.Correct
		sw.print()
		res.Workloads = append(res.Workloads, sw)
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	path := filepath.Join(out, "results.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("\nhost nproc=%d gomaxprocs=%d isa=%s go=%s sha=%s comparable=%v seed=%d\nresults and traces: %s\n",
		res.Host.NProc, res.Host.GoMaxProcs, res.Host.KernelISA, res.Host.GoVersion, res.Host.GitSHA, res.Host.Comparable, seed, path)
	if !ok {
		return 1
	}
	return 0
}

// spawn runs one child and reads back the full result it wrote to dir.
func spawn(self, name string, seed uint64, seconds float64, traced, smoke bool, dir string) (*runResult, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace, "-out", dir}
	if smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, name+".*.json"))
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue
		}
		buf, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rr runResult
		if err := json.Unmarshal(buf, &rr); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		fmt.Fprintf(os.Stderr, "benchmark: %s trace=%s done in %.1fs\n", name, trace, time.Since(t0).Seconds())
		return &rr, nil
	}
	return nil, fmt.Errorf("child wrote no result under %s", dir)
}

// merge folds one child run into the workload's summary.
func (sw *suiteWorkload) merge(rr *runResult) {
	sw.Correct = sw.Correct && rr.Correct
	sw.Attempted += rr.Attempted
	sw.Failed += rr.Failed
	sw.Checks = append(sw.Checks, rr.Checks...)
	for k, v := range rr.Info {
		sw.Info[k] = v
	}
	if rr.Trace {
		sw.PerLayer = rr.Metrics
		return
	}
	for name, m := range rr.Metrics {
		s, ok := sw.EndToEnd[name]
		if !ok {
			s = &summary{Unit: m.Unit}
			sw.EndToEnd[name] = s
		}
		s.Runs = append(s.Runs, m.Value)
	}
}

// print writes every metric of the workload by name and unit: the
// end-to-end ones with their quartiles, then the per-layer ones this
// workload measures.
func (sw *suiteWorkload) print() {
	fmt.Printf("\n%s — %s\n", sw.Name, sw.Why)
	for _, spec := range endToEnd {
		s := sw.EndToEnd[spec.Name]
		if s == nil {
			continue
		}
		fmt.Printf("  %-20s %12.6g %-5s q1 %-10.6g q3 %-10.6g of %d runs, bound %2.0f%%\n", spec.Name, s.Median, s.Unit, s.Q1, s.Q3, len(s.Runs), spec.Bound*100)
	}
	failFrac := 0.0
	if sw.Attempted > 0 {
		failFrac = float64(sw.Failed) / float64(sw.Attempted)
	}
	fmt.Printf("  %-20s %12.6g %-5s %d failed of %d attempted\n", "fail_frac", failFrac, "frac", sw.Failed, sw.Attempted)
	names := make([]string, 0, len(sw.PerLayer))
	for n := range sw.PerLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		spec := specByName[n]
		if !slices.Contains(spec.On, sw.Name) {
			continue
		}
		m := sw.PerLayer[n]
		fmt.Printf("    %-34s %12.6g %s\n", n, m.Value, m.Unit)
	}
	for _, ck := range sw.Checks {
		if !ck.OK {
			fmt.Printf("  check %s [%s]: %s\n", ck.Name, ck.verdict(), ck.Detail)
		}
	}
	keys := make([]string, 0, len(sw.Info))
	for k := range sw.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("    info %s = %s\n", k, sw.Info[k])
	}
}

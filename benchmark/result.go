package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metricValue is one reported metric: the value a comparison reads (the
// median over the run's repetitions, for a sampled metric), its unit, and
// the samples behind it so a reader can see the spread. Samples is empty
// for counts and for values measured once or pooled over the run.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
	// N states the sample count behind a pooled quantile (the requests a
	// p50 was taken over) when that differs from len(Samples).
	N int `json:"n,omitempty"`
}

// check is one correctness assertion of a run. A failed check fails the
// run and is counted in failed operations, unless it is Observed: a
// criterion recorded with its verdict that fails nothing (see
// runCtx.observe).
type check struct {
	Name     string `json:"name"`
	OK       bool   `json:"ok"`
	Observed bool   `json:"observed,omitempty"`
	Detail   string `json:"detail,omitempty"`
}

// verdict is how a check prints.
func (ck check) verdict() string {
	switch {
	case ck.OK && ck.Observed:
		return "observed, holds"
	case ck.Observed:
		return "observed, NOT MET"
	case ck.OK:
		return "ok"
	}
	return "FAIL"
}

// hostInfo is recorded with every result: a number means nothing without
// the machine and toolchain it was taken on.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	KernelISA  string `json:"kernel_isa"`
	GoVersion  string `json:"go_version"`
	GitSHA     string `json:"git_sha"`
	// Comparable is false when the host has fewer CPUs than the two the
	// workloads are sized for; such a result is recorded but must not be
	// compared against one taken on a full host.
	Comparable bool `json:"comparable"`
}

// runResult is everything one child process measured on one workload. The
// contract line printed last on stdout is a projection of it (see
// contractLine); the full struct is what -out writes and the suite reads.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Smoke     bool                   `json:"smoke,omitempty"`
	Host      hostInfo               `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Checks    []check                `json:"checks"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Info carries what is needed to read the metrics but is not one:
	// fingerprints, the loss target used, repetition counts.
	Info map[string]string `json:"info,omitempty"`
}

// contractLine renders the one-line JSON object the driver reads: exactly
// correct, attempted, failed and metrics, each metric exactly value+unit.
func (r *runResult) contractLine() ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for name, m := range r.Metrics {
		out.Metrics[name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(out)
}

// printMetrics writes every metric by name and unit, sorted, one per line.
func (r *runResult) printMetrics(w io.Writer) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		line := fmt.Sprintf("  %-36s %14.6g %-8s", n, m.Value, m.Unit)
		if len(m.Samples) > 1 {
			q1, _, q3 := quartiles(m.Samples)
			line += fmt.Sprintf(" q1 %.6g q3 %.6g n=%d", q1, q3, len(m.Samples))
		}
		if m.N > 0 {
			line += fmt.Sprintf(" over %d", m.N)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// readHost samples the machine. tensorISA is passed in so this file does
// not import the tensor layer.
func readHost(tensorISA string) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		KernelISA:  tensorISA,
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA("."),
		Comparable: runtime.NumCPU() >= 2,
	}
}

// gitSHA reads the checked-out commit from .git without running git (the
// benchmark starts no process it does not have to). A checkout that is not
// a repository reports "unknown".
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	s := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(s, "ref: ")
	if !ok {
		return s
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if f, err := os.Open(filepath.Join(root, ".git", "packed-refs")); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if sha, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

// peakRSSMB returns this process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

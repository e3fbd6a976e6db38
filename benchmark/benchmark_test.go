package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }

// The quartiles must be the ones Python's statistics.quantiles(xs, n=4)
// gives (exclusive method), because that is what the driver computes.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25}, // order must not matter
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 4}, 1, 2, 4},
		{[]float64{3, 1, 4, 1, 5}, 1, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); !near(m, c.q2) {
			t.Errorf("median(%v) = %g, want %g", c.xs, m, c.q2)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := percentile(asc, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of an empty sample must be 0")
	}
}

// A percentile is quoted only with at least ten samples beyond it.
func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, used float64
	}{
		{19, 0.99, 0},       // not even a median
		{20, 0.99, 0.5},     // ten beyond the median
		{99, 0.99, 0.5},     // 9.9 beyond p90
		{100, 0.99, 0.9},    // ten beyond p90
		{999, 0.99, 0.9},    // 9.99 beyond p99
		{1000, 0.99, 0.99},  // ten beyond p99
		{1000, 0.999, 0.99}, // one beyond p99.9
		{10000, 0.999, 0.999},
		{10000, 0.99, 0.99}, // never above what was asked
	} {
		if got := supportedTail(c.n, c.want); got != c.used {
			t.Errorf("supportedTail(%d, %g) = %g, want %g", c.n, c.want, got, c.used)
		}
	}
	asc := make([]float64, 500)
	for i := range asc {
		asc[i] = float64(i)
	}
	v, used := tailPercentile(asc, 0.99)
	if used != 0.9 || v != 449 {
		t.Errorf("tailPercentile(0..499, 0.99) = %g at %g, want 449 at 0.9", v, used)
	}
}

func TestScheduleIsDeterminedBySeed(t *testing.T) {
	a := poissonSchedule(2000, time.Second, 64, 7)
	b := poissonSchedule(2000, time.Second, 64, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := poissonSchedule(2000, time.Second, 64, 8); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	if len(a) < 1800 || len(a) > 2200 {
		t.Errorf("%d arrivals in 1 s at 2000/s", len(a))
	}
	var prev time.Duration
	for i, arr := range a {
		if arr.Due < prev || arr.Due >= time.Second || arr.Input < 0 || arr.Input >= 64 {
			t.Fatalf("arrival %d = %+v after %v", i, arr, prev)
		}
		prev = arr.Due
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	// A system that takes 2 ms per request, one at a time, offered a
	// request every millisecond: latency from the due time must grow with
	// the backlog, which latency from the send time would hide.
	var busy chan struct{} = make(chan struct{}, 1)
	do := func(int) bool {
		busy <- struct{}{}
		time.Sleep(2 * time.Millisecond)
		<-busy
		return true
	}
	var sched []arrival
	for i := 0; i < 20; i++ {
		sched = append(sched, arrival{Due: time.Duration(i) * time.Millisecond})
	}
	res := openLoop(do, sched)
	if res.Sent != 20 || res.Failed != 0 {
		t.Fatalf("sent %d failed %d", res.Sent, res.Failed)
	}
	if last := res.LatMs[len(res.LatMs)-1]; last < 15 {
		t.Errorf("slowest request took %.1f ms from its due time; the backlog of a 2x overloaded system must show", last)
	}
}

func TestSpanLogWritesChromeTrace(t *testing.T) {
	l := newSpanLog()
	root := l.begin("benchmark", "repetitions", -1, 0)
	kid := l.begin("core", "TrainSync", root, 1)
	l.end(kid)
	l.end(root)
	if l.spans[kid].Parent != root || l.spans[kid].Rep != 1 || l.spans[root].End < l.spans[kid].End {
		t.Errorf("spans %+v", l.spans)
	}
	var off *spanLog
	if id := off.begin("x", "y", -1, 0); id != -1 {
		t.Error("a nil span log must hand out -1")
	}
	off.end(-1)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := l.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	buf, _ := os.ReadFile(path)
	// Two spans plus one thread-name record per layer.
	if err := json.Unmarshal(buf, &doc); err != nil || len(doc.TraceEvents) != 4 {
		t.Fatalf("chrome trace: %v, %d events", err, len(doc.TraceEvents))
	}
}

func TestRunResultRoundTrips(t *testing.T) {
	in := runResult{
		Workload: wlServe, Seed: 9, Seconds: 20, Trace: false,
		Host:    hostInfo{NProc: 2, GoMaxProcs: 2, KernelISA: "avx512", GoVersion: "go1.24.0", GitSHA: "abc", Comparable: true},
		Correct: true, Attempted: 1000, Failed: 0,
		Checks: []check{{Name: "router_counts", OK: true, Detail: "sent 1000"}},
		Metrics: map[string]metricValue{
			"samples_per_s":     {Value: 12345.678901234, Unit: "1/s", Samples: []float64{12000.5, 12345.678901234, 13000.25}},
			"time_to_result_ms": {Value: 0.2071, Unit: "ms", N: 5992},
		},
		Info: map[string]string{"repetitions": "3"},
	}
	buf, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out runResult
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the result:\n in  %+v\n out %+v", in, out)
	}

	// The contract line has exactly four keys, and each metric exactly
	// value and unit.
	line, err := in.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsRune(line, '\n') {
		t.Error("the contract line spans lines")
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Errorf("contract line keys: %s", line)
	}
	var ms map[string]map[string]json.RawMessage
	if err := json.Unmarshal(top["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	for name, m := range ms {
		if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
			t.Errorf("metric %s has keys %v, want exactly value and unit", name, m)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// BENCHMARK.json at the repository root is the metric tables, rendered; and
// the tables stay inside the contract's limits.
func TestContractFileMatchesTables(t *testing.T) {
	want := contractJSON()
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the metric tables in spec.go and spec_layers.go; it must read:\n%s", want)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}
	if n := len(allWorkloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	for _, name := range allWorkloads {
		why := workloadWhy[name]
		if !nameRE.MatchString(name) || seen[name] || why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", name, len(why))
		}
		seen[name] = true
		if workloads[name] == nil {
			t.Errorf("workload %q has no constructor", name)
		}
	}
	hasSetup := false
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("metric name %q is malformed or used twice", s.Name)
		}
		seen[s.Name] = true
		if !unitRE.MatchString(s.Unit) {
			t.Errorf("metric %s: unit %q", s.Name, s.Unit)
		}
		if s.Better != "higher" && s.Better != "lower" {
			t.Errorf("metric %s: better %q", s.Name, s.Better)
		}
		for _, w := range s.On {
			if workloads[w] == nil {
				t.Errorf("metric %s names unknown workload %q", s.Name, w)
			}
		}
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", s.Name, s.Bound)
		}
		if len(s.On) != len(allWorkloads) {
			t.Errorf("end-to-end metric %s must be reported by every workload", s.Name)
		}
		if s.Name == "setup_s" {
			hasSetup = s.Unit == "s" && s.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) is missing from the end-to-end metrics")
	}
}

// An observed criterion is recorded with its verdict and fails nothing.
func TestObserveFailsNothing(t *testing.T) {
	c := &runCtx{}
	c.observe("asked_for", false, "not met on the baseline")
	c.check("held", true, "fine")
	if c.failed != 0 || c.attempted != 0 {
		t.Errorf("an observation counted as an operation: %d failed of %d", c.failed, c.attempted)
	}
	if len(c.checks) != 2 || !c.checks[0].Observed || c.checks[0].OK || c.checks[0].verdict() != "observed, NOT MET" {
		t.Errorf("checks %+v", c.checks)
	}
	c.check("broken", false, "wrong")
	if c.failed != 1 || c.checks[2].verdict() != "FAIL" {
		t.Errorf("a failed check must count: %d failed, %+v", c.failed, c.checks[2])
	}
}

func suiteOf(sps, q1, q3 float64, failed int64) suiteResult {
	return suiteResult{
		Host: hostInfo{Comparable: true},
		Workloads: []suiteWorkload{{
			Name: wlBulk, Correct: failed == 0, Attempted: 1000, Failed: failed,
			EndToEnd: map[string]*summary{"samples_per_s": {Unit: "1/s", Median: sps, Q1: q1, Q3: q3}},
		}},
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r suiteResult) string {
		buf, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := specByName["samples_per_s"].Bound
	base := write("base.json", suiteOf(1000, 990, 1010, 0))
	for _, c := range []struct {
		name string
		cur  suiteResult
		exit int
		says string
	}{
		{"same", suiteOf(1000, 990, 1010, 0), 0, "ok"},
		{"within", suiteOf(1000*(1-bound/2), 990*(1-bound/2), 1010*(1-bound/2), 0), 0, "ok"},
		{"slower", suiteOf(1000*(1-2*bound), 990*(1-2*bound), 1010*(1-2*bound), 0), 1, "REGRESSION"},
		{"faster", suiteOf(1000*(1+2*bound), 990*(1+2*bound), 1010*(1+2*bound), 0), 0, "improved"},
		{"noisy", suiteOf(1000, 1000*(1-bound), 1000*(1+bound), 0), 0, "unresolved"},
		{"failing", suiteOf(1000, 990, 1010, 1), 1, "any increase"},
	} {
		var out bytes.Buffer
		exit := compareFiles(&out, base, write(c.name+".json", c.cur))
		if exit != c.exit || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: exit %d (want %d), output lacks %q:\n%s", c.name, exit, c.exit, c.says, out.String())
		}
	}
}

// TestSmoke walks every workload end to end, untraced and traced, at
// toy scale: every metric BENCHMARK.json names must come out, by name and
// with its unit, and every check must hold. The numbers mean nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at toy scale (a few seconds)")
	}
	prevProcs := runtime.GOMAXPROCS(2)
	prevThreads := setKernelThreads(2)
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		setKernelThreads(prevThreads)
	}()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// Runs keep their scratch under ./.bench_build; point that at a
	// directory the test framework removes.
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)

	for _, name := range allWorkloads {
		for _, trace := range []bool{false, true} {
			c := &runCtx{workload: name, seed: 5, seconds: 0.05, trace: trace, smoke: true}
			t0 := time.Now()
			res, err := runWorkload(c)
			t.Logf("%s trace=%v: %.2fs", name, trace, time.Since(t0).Seconds())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			for _, ck := range res.Checks {
				if !ck.OK {
					t.Errorf("%s trace=%v: check %s failed: %s", name, trace, ck.Name, ck.Detail)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || m.Unit != s.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q (want %q)", name, trace, s.Name, m.Unit, s.Unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", name, s.Name, m.Value)
				}
			}
			if _, err := res.contractLine(); err != nil {
				t.Errorf("%s trace=%v: contract line: %v", name, trace, err)
			}
		}
	}
}

func TestCalibrateTarget(t *testing.T) {
	// A loss falling linearly from 1.0 to 0.0 over 200 iterations: the
	// 10-iteration mean first reaches 0.20 near iteration 164, outside
	// 30–70%; the nearest multiple of 0.05 that crosses inside is 0.30
	// (near iteration 144 — still outside), then 0.35 (134, inside).
	losses := make([]float64, 200)
	for i := range losses {
		losses[i] = 1 - float64(i)/200
	}
	target, k := calibrateTarget(losses, 0.20, 10)
	if k < 60 || k > 140 {
		t.Errorf("target %.2f crosses at %d, outside 30–70%% of 200", target, k)
	}
	if !near(target, 0.35) {
		t.Errorf("target %.2f, want 0.35 (the in-window multiple of 0.05 nearest 0.20)", target)
	}
	if k != firstBelow(losses, target, 10) {
		t.Error("crossing does not match firstBelow")
	}
	// A loss that never comes down is met only by a target above it.
	flat := []float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	if _, k := calibrateTarget(flat, 0.20, 4); k >= 0 {
		t.Errorf("a flat loss of 5 met a target at %d", k)
	}
}

package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// processStart approximates when this process began (package init runs a
// few milliseconds after exec), the origin setup_s is measured from.
var processStart = time.Now()

// runCtx is one child run: the arguments it was given, the scratch
// directory it may write to, and everything it has measured so far.
type runCtx struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	dir      string // scratch, inside the checkout, removed when the run ends
	outDir   string // where -out artifacts go; "" writes none

	metrics   map[string]*metricValue
	attempted int64
	failed    int64
	checks    []check
	info      map[string]string

	// spans is the benchmark's own span log; nil outside traced runs.
	spans *spanLog
}

// scale picks a size: full normally, small under -smoke, so the smoke run
// walks every code path in a few seconds.
func (c *runCtx) scale(full, small int) int {
	if c.smoke {
		return small
	}
	return full
}

// budget is a probe's time allowance.
func (c *runCtx) budget(full time.Duration) time.Duration {
	if c.smoke {
		return full / 20
	}
	return full
}

// add appends one repetition's sample of a metric. When the run ends the
// reported value is the median of the samples.
func (c *runCtx) add(name string, v float64) {
	m := c.metric(name)
	m.Samples = append(m.Samples, v)
}

// set records a metric measured once, pooled over the run or derived from
// others. A metric is either set or sampled with add, never both.
func (c *runCtx) set(name string, v float64) { c.metric(name).Value = v }

// probe runs fn inside one of the benchmark's own spans.
func (c *runCtx) probe(parent int, layer, name string, fn func()) {
	id := c.spans.begin(layer, name, parent, 0)
	fn()
	c.spans.end(id)
}

func (c *runCtx) metric(name string) *metricValue {
	m, ok := c.metrics[name]
	if !ok {
		spec, known := specByName[name]
		if !known {
			panic("benchmark: metric " + name + " is not in the spec table")
		}
		m = &metricValue{Unit: spec.Unit}
		c.metrics[name] = m
	}
	return m
}

// ops counts operations attempted and failed. An operation is an update
// with a finite loss, a request that returned a checked response, or a
// scored sample.
func (c *runCtx) ops(attempted, failed int64) {
	c.attempted += attempted
	c.failed += failed
}

// check records a correctness assertion. A failed check fails the run and
// counts as one failed operation, so it shows in fail_frac too.
func (c *runCtx) check(name string, ok bool, format string, args ...any) {
	c.checks = append(c.checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		c.ops(1, 1)
	}
}

// observe records a criterion of the issue that the baseline does not meet
// on every run, so it cannot fail one: it is printed with its verdict and
// kept in the result, and fails nothing.
func (c *runCtx) observe(name string, ok bool, format string, args ...any) {
	c.checks = append(c.checks, check{Name: name, OK: ok, Observed: true, Detail: fmt.Sprintf(format, args...)})
}

// workload is one benchmark workload: a system brought up on inputs made
// from the seed, measured in repetitions.
type workload interface {
	// setup generates the inputs, brings the system up and runs the
	// warm-up repetition. Everything it does is booked to setup_s.
	setup(c *runCtx) error
	// measure runs one untraced repetition, recording its end-to-end
	// samples, and returns nil unless the repetition could not run.
	measure(c *runCtx, rep int) error
	// traced runs the traced repetition and the layer probes, recording
	// every per-layer metric the workload owns.
	traced(c *runCtx) error
	// finish runs the checks that span repetitions.
	finish(c *runCtx)
	// teardown stops everything setup started and waits for it.
	teardown()
}

// setupRepeats is how many times an untraced run sets the system up. The
// first set-up is the one the run measures on; the others follow the
// measurement on fresh systems that are torn down at once, so nothing they
// allocate reaches peak_rss_mb. setup_s is the median, which one slow fsync
// cannot move.
const setupRepeats = 3

// runWorkload executes one child run and returns its result. It never
// exits the process; the caller prints and sets the exit code.
func runWorkload(c *runCtx) (*runResult, error) {
	mk, ok := workloads[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	// What the process spent before it got here is part of every set-up.
	boot := time.Since(processStart).Seconds()
	dir, err := os.MkdirTemp(scratchRoot(), "run-")
	if err != nil {
		return nil, err
	}
	c.dir = dir
	defer os.RemoveAll(dir)
	c.metrics = map[string]*metricValue{}
	c.info = map[string]string{}
	if c.trace {
		c.spans = newSpanLog()
	}

	w := mk()
	t0 := time.Now()
	err = w.setup(c)
	setup := boot + time.Since(t0).Seconds()
	if err != nil {
		w.teardown()
		return nil, fmt.Errorf("setup: %w", err)
	}
	if c.trace {
		err = w.traced(c)
	} else {
		c.add("setup_s", setup)
		err = measureUntraced(c, w)
		c.set("peak_rss_mb", peakRSSMB())
	}
	if err == nil {
		w.finish(c)
	}
	w.teardown()
	if err != nil {
		return nil, err
	}
	if !c.trace && !c.smoke {
		for i := 1; i < setupRepeats; i++ {
			again := mk()
			t0 := time.Now()
			err := again.setup(c)
			c.add("setup_s", boot+time.Since(t0).Seconds())
			again.teardown()
			if err != nil {
				return nil, fmt.Errorf("setup %d: %w", i+1, err)
			}
		}
	}

	specs := endToEnd
	if c.trace {
		specs = perLayer
	}
	res := &runResult{
		Workload: c.workload, Seed: c.seed, Seconds: c.seconds, Trace: c.trace, Smoke: c.smoke,
		Host: readHost(kernelISA()), Attempted: c.attempted, Failed: c.failed,
		Checks: c.checks, Metrics: map[string]metricValue{}, Info: c.info,
	}
	for _, s := range specs {
		if m, ok := c.metrics[s.Name]; ok {
			if len(m.Samples) > 0 {
				m.Value = median(m.Samples)
			}
			res.Metrics[s.Name] = *m
		} else {
			// A layer this workload bypasses did no work on it.
			res.Metrics[s.Name] = metricValue{Unit: s.Unit}
		}
	}
	res.Correct = res.Failed == 0
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Correct = false
			res.Checks = append(res.Checks, check{Name: "finite:" + name, Detail: "metric is not a finite number"})
			m.Value = 0
			res.Metrics[name] = m
		}
	}
	if res.Attempted < 1 {
		res.Attempted, res.Failed, res.Correct = 1, 1, false
	}
	if c.outDir != "" {
		if err := writeArtifacts(c, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measureUntraced runs untraced repetitions until the time allowance is
// used.
func measureUntraced(c *runCtx, w workload) error {
	start := time.Now()
	for rep := 0; ; rep++ {
		t0 := time.Now()
		if err := w.measure(c, rep); err != nil {
			return fmt.Errorf("repetition %d: %w", rep, err)
		}
		// Stop when another repetition of this length would overshoot
		// the allowance by more than half of itself.
		last := time.Since(t0).Seconds()
		if time.Since(start).Seconds()+last/2 > c.seconds {
			c.info["repetitions"] = fmt.Sprint(rep + 1)
			return nil
		}
	}
}

// scratchRoot is where runs keep their temporary files: inside the
// checkout (the benchmark may write nowhere else), under the build
// directory so one .gitignore line covers it.
func scratchRoot() string {
	root := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "."
	}
	return root
}

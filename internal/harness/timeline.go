package harness

import (
	"fmt"
	"os"
	"strings"

	"deep15pf/internal/cluster"
	"deep15pf/internal/core"
	"deep15pf/internal/data"
	"deep15pf/internal/hep"
	"deep15pf/internal/obs"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

// Timeline reproduces the per-worker phase breakdown from recorded spans
// rather than hand-threaded timers: a traced shard-backed HEP run yields
// the per-phase time table and the span-derived ingest-overlap fraction
// (cross-checked against the pipeline's own timer accounting), and the
// calibrated cluster model yields a deterministic per-iteration
// straggler-skew report under an injected slowdown — the §VIII-A
// observation as a table instead of an anecdote.
func Timeline(opts Options) Report {
	body := "Traced run (shard-backed HEP, prefetch=1): per-phase seconds from spans\n"
	tl, err := traceHEPRun(opts)
	if err != nil {
		body += "(traced run unavailable: " + err.Error() + ")\n"
	} else {
		body += tl
	}
	body += "\nModelled straggler skew (16 nodes, 2 groups, 3x slowdown on group 0, iters 3-4)\n"
	body += SimStragglers(opts).String()
	body += "\nSkew is per-iteration max-min compute seconds across group lanes; the slowed\n" +
		"window dominates, and outside it the skew collapses to the jitter floor — the\n" +
		"signature the paper's synchronous configurations are sized to avoid.\n"
	return Report{ID: "timeline", Title: "Phase timeline and straggler report (from spans)", Body: body}
}

// SimStragglers runs the deterministic DES straggler scenario and reports
// the span-derived skew. Split out so tests can pin the exact report.
func SimStragglers(opts Options) obs.StragglerReport {
	tr := obs.NewTracer(0)
	cluster.Simulate(cluster.CoriPhaseII(), cluster.HEPProfile(), cluster.RunConfig{
		Nodes: 16, Groups: 2, BatchPerGroup: 64, Iterations: 8, Seed: opts.Seed,
		Trace:   tr,
		Failure: &cluster.FailureSpec{Group: 0, StartIter: 3, Duration: 2, Slowdown: 3},
	})
	return obs.Stragglers(tr.Snapshot())
}

// TraceOverlap is the span-derived ingest accounting for one traced run:
// staging work on the prefetch lanes, the exposed wait on the worker
// lanes, and the staging seconds that ran concurrently with compute
// (merged-interval overlap). Fractions follow data.IngestStats.Overlap's
// convention: 1 - exposed/staged, clamped to [0,1].
type TraceOverlap struct {
	StagedSeconds  float64
	ExposedSeconds float64
	HiddenSeconds  float64
}

// Overlap returns the span-derived overlap fraction.
func (o TraceOverlap) Overlap() float64 {
	if o.StagedSeconds <= 0 {
		return 0
	}
	f := 1 - o.ExposedSeconds/o.StagedSeconds
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// IngestOverlapFromSpans computes the ingest A/B numbers from a traced
// run's spans. Staging lives on the ".ingest" sub-lanes; the exposed wait
// is the Ingest phase on the worker lanes themselves. HiddenSeconds uses
// obs.OverlapSeconds between staging intervals and compute intervals,
// with worker-lane Ingest spans filtered out so the two predicates
// partition cleanly.
func IngestOverlapFromSpans(lanes []obs.LaneSpans) TraceOverlap {
	var o TraceOverlap
	filtered := make([]obs.LaneSpans, 0, len(lanes))
	for _, ls := range lanes {
		if strings.HasSuffix(ls.Name, ".ingest") {
			o.StagedSeconds += phaseSecondsOf(ls, obs.PhaseIngest)
			filtered = append(filtered, ls)
			continue
		}
		o.ExposedSeconds += phaseSecondsOf(ls, obs.PhaseIngest)
		kept := obs.LaneSpans{Name: ls.Name}
		for _, sp := range ls.Spans {
			if sp.Phase != obs.PhaseIngest {
				kept.Spans = append(kept.Spans, sp)
			}
		}
		filtered = append(filtered, kept)
	}
	o.HiddenSeconds = obs.OverlapSeconds(filtered,
		func(p obs.Phase) bool { return p == obs.PhaseIngest },
		func(p obs.Phase) bool { return p == obs.PhaseFwd || p == obs.PhaseBwd })
	return o
}

func phaseSecondsOf(ls obs.LaneSpans, p obs.Phase) float64 {
	var s float64
	for _, sp := range ls.Spans {
		if sp.Phase == p {
			s += sp.Seconds()
		}
	}
	return s
}

// traceHEPRun trains the fig5 shard-backed HEP problem once with tracing
// and prefetch on, and renders the per-phase table plus the overlap
// cross-check (spans vs the pipeline's timers).
func traceHEPRun(opts Options) (string, error) {
	size, events, iters, batch := 32, 96, 24, 8
	if opts.Quick {
		size, events, iters = 16, 48, 16
	}
	rng := tensor.NewRNG(opts.Seed + 2)
	cfg := hep.ModelConfig{Name: "timeline", ImageSize: size, Filters: 8, ConvUnits: 3, Classes: 2}
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(size), events, 0.5, rng)

	dir, err := os.MkdirTemp("", "d15p-timeline")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	paths, err := ds.SaveShards(dir, 4)
	if err != nil {
		return "", err
	}
	set, err := data.OpenShardSet(paths...)
	if err != nil {
		return "", err
	}
	defer set.Close()

	problem := hep.NewTrainingProblem(ds, cfg, opts.Seed+3)
	problem.Backing = set
	tr := obs.NewTracer(0)
	res := core.TrainSync(problem, core.Config{
		Groups: 1, WorkersPerGroup: 2, GroupBatch: batch, Iterations: iters,
		Solver: opt.NewSGD(0.02, 0.9), Seed: opts.Seed, Trace: tr,
	})
	snap := tr.Snapshot()

	t := newTable("phase", "seconds", "share")
	phases := obs.PhaseSeconds(snap)
	var total float64
	for _, s := range phases {
		total += s
	}
	for p, s := range phases {
		if s == 0 {
			continue
		}
		share := 0.0
		if total > 0 {
			share = 100 * s / total
		}
		t.addf("%s|%.4f|%.1f%%", obs.Phase(p), s, share)
	}
	o := IngestOverlapFromSpans(snap)
	out := t.String()
	out += fmt.Sprintf("ingest from spans: staged %.1f ms, exposed %.1f ms, hidden-behind-compute %.1f ms -> overlap %.0f%%\n",
		o.StagedSeconds*1e3, o.ExposedSeconds*1e3, o.HiddenSeconds*1e3, 100*o.Overlap())
	out += fmt.Sprintf("pipeline timers:   staged %.1f ms, exposed %.1f ms -> overlap %.0f%% (cross-check)\n",
		res.Ingest.StageSeconds*1e3, res.Ingest.WaitSeconds*1e3, 100*res.Ingest.Overlap())
	return out, nil
}

package core_test

import (
	"slices"
	"strings"
	"testing"

	"deep15pf/internal/core"
	"deep15pf/internal/obs"
	"deep15pf/internal/opt"
)

// TestTracedTrajectoriesMatchGolden: attaching the phase tracer must not
// perturb the arithmetic — traced sync/hybrid/scheduled runs reproduce
// the pre-refactor golden fingerprints bit for bit: the tracer reads
// clocks and writes preallocated slots, nothing more.
func TestTracedTrajectoriesMatchGolden(t *testing.T) {
	p := goldenProblem()
	check := func(name string, want uint64, res core.Result) {
		t.Helper()
		if got := weightHash(res.FinalWeights); got != want {
			t.Errorf("%s: traced weight trajectory diverged from golden: %#016x, want %#016x",
				name, got, want)
		}
	}
	check("sync-w4-traced", goldenSyncW4, core.TrainSync(p, core.Config{
		Groups: 1, WorkersPerGroup: 4, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewAdam(2e-3), Seed: 5, Trace: obs.NewTracer(0)}))
	check("hybrid-g1w2-traced", goldenHybridG1W2, core.TrainHybrid(p, core.Config{
		Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewAdam(2e-3), Seed: 5, Trace: obs.NewTracer(0)}))
	tr := obs.NewTracer(0)
	check("sched-g2-traced", goldenSchedG2, core.TrainScheduled(p, core.Config{
		Groups: 2, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 8,
		Solver: opt.NewAdam(2e-3), Seed: 5, Trace: tr}, goldenSchedule()))
	// A scheduled run is the hybrid loop: its roots record on hybrid lanes.
	names := laneNames(tr.Snapshot())
	for _, want := range []string{"g0.w0", "g1.w0"} {
		if !slices.Contains(names, want) {
			t.Errorf("scheduled run has no lane %q: %v", want, names)
		}
	}
}

// TestTracedSyncRecordsPhases checks the wiring end to end: a traced
// 4-worker sync run produces one lane per rank (beside its prefetcher's
// ".ingest" lane) with Ingest, Fwd, Bwd, CommWait and OptApply spans on
// every iteration, iteration tags intact, and the straggler report covers
// every iteration across all four rank lanes.
func TestTracedSyncRecordsPhases(t *testing.T) {
	tr := obs.NewTracer(0)
	const iters = 10
	core.TrainSync(goldenProblem(), core.Config{
		Groups: 1, WorkersPerGroup: 4, GroupBatch: 16, Iterations: iters,
		Solver: opt.NewAdam(2e-3), Seed: 5, Trace: tr})

	var snap []obs.LaneSpans
	for _, ls := range tr.Snapshot() {
		if !strings.HasSuffix(ls.Name, ".ingest") {
			snap = append(snap, ls)
		}
	}
	if len(snap) != 4 {
		t.Fatalf("got %d rank lanes, want 4 (w0..w3): %+v", len(snap), laneNames(snap))
	}
	for _, ls := range snap {
		var counts [obs.NumPhases]int
		maxIter := int32(-1)
		for _, s := range ls.Spans {
			counts[s.Phase]++
			if s.Iter > maxIter {
				maxIter = s.Iter
			}
			if s.Dur() < 0 {
				t.Errorf("%s: negative span %+v", ls.Name, s)
			}
		}
		for _, ph := range []obs.Phase{obs.PhaseIngest, obs.PhaseFwd, obs.PhaseBwd, obs.PhaseCommWait, obs.PhaseOptApply} {
			if counts[ph] != iters {
				t.Errorf("%s: %d %s spans, want %d", ls.Name, counts[ph], ph, iters)
			}
		}
		if maxIter != iters-1 {
			t.Errorf("%s: max iter tag %d, want %d", ls.Name, maxIter, iters-1)
		}
	}
	rep := obs.Stragglers(snap)
	if len(rep.Iters) != iters {
		t.Fatalf("straggler report covers %d iters, want %d", len(rep.Iters), iters)
	}
	for _, it := range rep.Iters {
		if it.Lanes != 4 {
			t.Errorf("iter %d: %d lanes in skew, want 4", it.Iter, it.Lanes)
		}
		if it.Skew < 0 || it.Max < it.Min {
			t.Errorf("iter %d: inconsistent stats %+v", it.Iter, it)
		}
	}
}

// TestTracedPrefetchShowsIngestLanes: each worker has a ".ingest" sibling
// lane carrying the prefetcher's staging spans, while the worker lane's own
// Ingest spans shrink to the exposed wait.
func TestTracedPrefetchShowsIngestLanes(t *testing.T) {
	tr := obs.NewTracer(0)
	core.TrainSync(goldenProblem(), core.Config{
		Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewSGD(0.02, 0.9), Seed: 5, Trace: tr})
	snap := tr.Snapshot()
	names := map[string]bool{}
	for _, ls := range snap {
		names[ls.Name] = true
	}
	for _, want := range []string{"w0", "w1", "w0.ingest", "w1.ingest"} {
		if !names[want] {
			t.Errorf("missing lane %q (have %v)", want, laneNames(snap))
		}
	}
	// The staging work happened on the ingest lanes.
	isIngest := func(p obs.Phase) bool { return p == obs.PhaseIngest }
	var stagingLanes []obs.LaneSpans
	for _, ls := range snap {
		if strings.HasSuffix(ls.Name, ".ingest") {
			stagingLanes = append(stagingLanes, ls)
		}
	}
	if got := obs.CoveredSeconds(stagingLanes, isIngest); got <= 0 {
		t.Errorf("no staging time recorded on ingest lanes")
	}
}

func laneNames(snap []obs.LaneSpans) []string {
	out := make([]string, len(snap))
	for i, ls := range snap {
		out[i] = ls.Name
	}
	return out
}

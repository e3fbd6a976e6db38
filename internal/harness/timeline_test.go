package harness

import (
	"strings"
	"testing"

	"deep15pf/internal/core"
	"deep15pf/internal/hep"
	"deep15pf/internal/obs"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

func TestTimelineReport(t *testing.T) {
	r := Timeline(testOpts())
	for _, want := range []string{"straggler skew:", "Fwd", "Bwd", "OptApply", "overlap"} {
		if !strings.Contains(r.Body, want) {
			t.Fatalf("timeline missing %q:\n%s", want, r.Body)
		}
	}
}

// TestSimStragglersPinned: the harness straggler scenario runs on the
// deterministic cluster model, so the report is a pure function of the
// seed — the same call must reproduce it bit for bit, the slowed window
// must own the worst iteration, and every iteration must see both lanes.
func TestSimStragglersPinned(t *testing.T) {
	rep := SimStragglers(testOpts())
	if len(rep.Iters) != 8 {
		t.Fatalf("report covers %d iters, want 8", len(rep.Iters))
	}
	for _, it := range rep.Iters {
		if it.Lanes != 2 {
			t.Fatalf("iter %d saw %d lanes, want 2", it.Iter, it.Lanes)
		}
	}
	if rep.WorstIter != 3 && rep.WorstIter != 4 {
		t.Errorf("worst iter = %d, want the 3x-slowdown window (3 or 4)", rep.WorstIter)
	}
	if rep.MaxSkew <= 0 || rep.MeanSkew <= 0 || rep.MaxSkew < rep.MeanSkew {
		t.Errorf("degenerate skew stats: %+v", rep)
	}
	again := SimStragglers(testOpts())
	if rep.MaxSkew != again.MaxSkew || rep.MeanSkew != again.MeanSkew || rep.WorstIter != again.WorstIter {
		t.Fatalf("straggler report not deterministic:\n%v\nvs\n%v", rep, again)
	}
}

// TestSpanOverlapMatchesPipelineTimers: the span-derived ingest account
// brackets the pipeline's own timers, by construction of the one replica
// (core.Replica) rather than by a timing tolerance. On the consumer, the
// worker lane's Ingest span opens before Pipeline.Next starts its wait
// timer and closes after it stops, so exposed-from-spans >= WaitSeconds. On
// the stager, the pipeline's stage timer opens before the ".ingest" lane's
// span and closes after it, so staged-from-spans <= StageSeconds. Each
// staged and each consumed batch is exactly one span. All four hold on a
// loaded host; a two-sided closeness bound does not.
func TestSpanOverlapMatchesPipelineTimers(t *testing.T) {
	rng := tensor.NewRNG(7)
	cfg := hep.ModelConfig{Name: "overlap-x", ImageSize: 16, Filters: 8, ConvUnits: 2, Classes: 2}
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(16), 48, 0.5, rng)
	problem := hep.NewTrainingProblem(ds, cfg, 3)
	tr := obs.NewTracer(0)
	res := core.TrainSync(problem, core.Config{
		Groups: 1, WorkersPerGroup: 2, GroupBatch: 8, Iterations: 12,
		Solver: opt.NewSGD(0.02, 0.9), Seed: 42, Trace: tr,
	})
	snap := tr.Snapshot()
	o := IngestOverlapFromSpans(snap)
	st := res.Ingest
	if o.StagedSeconds <= 0 || st.StageSeconds <= 0 {
		t.Fatalf("no staging recorded: spans %+v timers %+v", o, st)
	}
	// Summing per-span float seconds against a nanosecond counter's total
	// rounds differently in the last bits; nothing more.
	const eps = 1e-9
	if o.ExposedSeconds < st.WaitSeconds-eps {
		t.Errorf("consumer Ingest spans %.9f s do not bracket the pipeline's wait timer %.9f s", o.ExposedSeconds, st.WaitSeconds)
	}
	if o.StagedSeconds > st.StageSeconds+eps {
		t.Errorf("pipeline stage timer %.9f s does not bracket the stager's Ingest spans %.9f s", st.StageSeconds, o.StagedSeconds)
	}
	var stagerSpans, consumerSpans int64
	for _, ls := range snap {
		for _, sp := range ls.Spans {
			if sp.Phase != obs.PhaseIngest {
				continue
			}
			if strings.HasSuffix(ls.Name, ".ingest") {
				stagerSpans++
			} else {
				consumerSpans++
			}
		}
	}
	if stagerSpans != st.Batches || consumerSpans != st.Batches {
		t.Errorf("%d stager and %d consumer Ingest spans for %d staged batches", stagerSpans, consumerSpans, st.Batches)
	}
	if o.HiddenSeconds < 0 || o.HiddenSeconds > o.StagedSeconds+eps {
		t.Errorf("hidden %.4f outside [0, staged %.4f]", o.HiddenSeconds, o.StagedSeconds)
	}
}

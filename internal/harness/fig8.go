package harness

import (
	"fmt"
	"math"
	"strings"

	"deep15pf/internal/cluster"
	"deep15pf/internal/core"
	"deep15pf/internal/hep"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

// Fig8 reproduces the time-to-train study (§VI-B4): training loss versus
// wall-clock time for the HEP network on 1024 nodes with a fixed total
// batch, comparing the synchronous configuration against 2, 4 and 8 hybrid
// groups. The SGD dynamics are real (our scaled-down HEP problem trained
// through the real per-layer parameter servers in simulated-schedule
// order); the wall-clock axis comes from the cluster model at 1024 nodes.
// The paper reports the best hybrid reaching the target loss ~1.66x faster
// than the best sync run, with the worst sync run many times slower, using
// ADAM with lr ∈ [1e-4, 1e-3] and hybrid momentum tuned over {0, 0.4, 0.7}.
func Fig8(opts Options) Report {
	totalUpdates := 180
	dsN, imgSize, totalBatch := 384, 16, 64
	if opts.Quick {
		totalUpdates, dsN, totalBatch = 90, 256, 32
	}

	rng := tensor.NewRNG(opts.Seed)
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(imgSize), dsN, 0.5, rng)
	model := hep.ModelConfig{Name: "fig8", ImageSize: imgSize, Filters: 6, ConvUnits: 3, Classes: 2}

	m := cluster.CoriPhaseII()
	profile := cluster.HEPProfile()

	type run struct {
		label     string
		groups    int
		mu        float64
		result    core.Result
		exposedIt float64 // exposed (non-hidden) comm seconds per iteration
		gradBytes int64   // PS gradient wire bytes for the whole run
	}
	var runs []run

	execute := func(label string, groups int, beta1 float64, seed uint64, overlap bool, codec string) run {
		iters := totalUpdates / groups
		// Hardware timeline: this configuration at 1024 nodes with the
		// paper's total batch of 1024 split across groups. Overlap is a
		// knob of the timing model only (the trainer always overlaps, and
		// in schedule order overlap cannot change the arithmetic); the
		// codec reshapes the timeline and the real exchange alike.
		simRes := cluster.Simulate(m, profile, cluster.RunConfig{
			Nodes: 1024, Groups: groups, BatchPerGroup: 1024 / groups,
			Iterations: iters, Seed: seed, Overlap: overlap, Codec: codec,
		})
		schedule := core.BuildSchedule(simRes.IterDurations)
		problem := hep.NewTrainingProblem(ds, model, 100+seed)
		res := core.TrainScheduled(problem, core.Config{
			Groups: groups, WorkersPerGroup: 1, GroupBatch: totalBatch / groups,
			Iterations: iters,
			Solver:     opt.NewAdamFull(1e-3, beta1, 0.999, 1e-8),
			Seed:       seed,
			Codec:      codec,
		}, schedule)
		var nIter float64
		for _, d := range simRes.IterDurations {
			nIter += float64(len(d))
		}
		exposed := 0.0
		if nIter > 0 {
			exposed = simRes.ExposedCommSeconds / nIter
		}
		return run{label: label, groups: groups, mu: beta1, result: res,
			exposedIt: exposed, gradBytes: res.Wire.GradBytes}
	}

	// Synchronous: momentum fixed at 0.9, best and worst of 3 runs.
	var syncRuns []run
	for s := 0; s < 3; s++ {
		syncRuns = append(syncRuns, execute(fmt.Sprintf("sync seed %d", s), 1, 0.9, opts.Seed+uint64(s), false, "fp32"))
	}
	// Hybrid (lockstep fp32 timeline): tune momentum over the paper's grid,
	// keep the best per G.
	for _, g := range []int{2, 4, 8} {
		var best run
		bestLoss := math.Inf(1)
		for _, mu := range opt.MomentumGrid {
			r := execute(fmt.Sprintf("hybrid %dg mu=%.1f", g, mu), g, mu, opts.Seed, false, "fp32")
			if l := smoothedMin(r.result); l < bestLoss {
				bestLoss = l
				best = r
			}
		}
		runs = append(runs, best)
	}
	// The overlap/codec A/B at the middle group count, reusing its tuned
	// momentum: lockstep-fp32 (already in runs) vs overlapped-fp32 vs
	// overlapped-int8 timelines. The first two train identically; only
	// the simulated clock moves.
	abMu := runs[1].mu
	runs = append(runs,
		execute(fmt.Sprintf("hybrid 4g mu=%.1f overlap", abMu), 4, abMu, opts.Seed, true, "fp32"),
		execute(fmt.Sprintf("hybrid 4g mu=%.1f overlap+int8", abMu), 4, abMu, opts.Seed, true, "int8"),
	)

	// Common target: the loosest of the per-run best losses, so every
	// configuration reaches it (the paper's 0.05 played the same role:
	// a loss every run could beat).
	target := 0.0
	all := append(append([]run{}, syncRuns...), runs...)
	for _, r := range all {
		if l := smoothedMin(r.result); l > target {
			target = l
		}
	}
	target *= 1.02

	var b strings.Builder
	fmt.Fprintf(&b, "Total batch 1024 on 1024 simulated nodes; %d total updates; target loss %.4f\n",
		totalUpdates, target)
	t := newTable("config", "updates", "mean staleness", "final loss", "exposed comm/iter", "PS grad MB", "time to target", "vs best sync")

	bestSyncTime := math.Inf(1)
	syncTimes := make([]float64, len(syncRuns))
	for i, r := range syncRuns {
		tt, ok := core.TimeToLoss(r.result, target, smoothWindow(r.result))
		if !ok {
			tt = math.Inf(1)
		}
		syncTimes[i] = tt
		if tt < bestSyncTime {
			bestSyncTime = tt
		}
	}
	for i, r := range syncRuns {
		t.addf("%s|%d|%.2f|%.4f|%.1f ms|%s|%s|%.2fx", r.label, len(r.result.Stats),
			r.result.MeanStaleness, r.result.FinalLoss, r.exposedIt*1e3, fmtMB(r.gradBytes),
			fmtTime(syncTimes[i]), bestSyncTime/syncTimes[i])
	}
	var bestHybridSpeedup float64
	for _, r := range runs {
		tt, ok := core.TimeToLoss(r.result, target, smoothWindow(r.result))
		speedup := 0.0
		if ok && tt > 0 {
			speedup = bestSyncTime / tt
		} else {
			tt = math.Inf(1)
		}
		if speedup > bestHybridSpeedup {
			bestHybridSpeedup = speedup
		}
		t.addf("%s|%d|%.2f|%.4f|%.1f ms|%s|%s|%.2fx", r.label, len(r.result.Stats),
			r.result.MeanStaleness, r.result.FinalLoss, r.exposedIt*1e3, fmtMB(r.gradBytes),
			fmtTime(tt), speedup)
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nBest hybrid reaches the target %.2fx faster than the best sync run\n"+
		"(paper: 1.66x, with the worst sync run many times slower).\n", bestHybridSpeedup)
	b.WriteString("The statistical/hardware-efficiency tradeoff of §II-B2 is visible directly:\n" +
		"higher group counts reach moderate losses sooner (more updates per second) while\n" +
		"showing higher staleness and a worse loss at equal update counts.\n" +
		"The overlapped rows pipeline each layer's exchange into the backward pass's\n" +
		"shadow (exposed comm/iter falls) and the int8 wire cuts the PS gradient\n" +
		"traffic ~4x at equal statistical quality — the §III-D/E engineering the\n" +
		"lockstep rows lack.\n")
	return Report{ID: "fig8", Title: "Training loss vs wall-clock time on 1024 nodes (Fig 8)", Body: b.String()}
}

func smoothWindow(res core.Result) int {
	w := len(res.Stats) / 10
	if w < 3 {
		w = 3
	}
	return w
}

// smoothedMin returns the lowest running-mean loss a run achieves.
func smoothedMin(res core.Result) float64 {
	w := smoothWindow(res)
	best := math.Inf(1)
	var sum float64
	for i, s := range res.Stats {
		sum += s.Loss
		if i >= w {
			sum -= res.Stats[i-w].Loss
		}
		if i >= w-1 {
			if v := sum / float64(w); v < best {
				best = v
			}
		}
	}
	return best
}

func fmtMB(b int64) string {
	return fmt.Sprintf("%.1f", float64(b)/(1<<20))
}

func fmtTime(t float64) string {
	if math.IsInf(t, 1) {
		return "never"
	}
	if t < 60 {
		return fmt.Sprintf("%.1f s", t)
	}
	return fmt.Sprintf("%.1f min", t/60)
}

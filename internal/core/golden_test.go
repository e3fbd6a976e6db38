package core_test

import (
	"math"
	"runtime"
	"testing"

	"deep15pf/internal/core"
	"deep15pf/internal/hep"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

// The first four fingerprints below were captured from the pre-refactor
// trainer (the serialized whole-backward / blocking-collective /
// ps.Fleet.UpdateAll path) at commit dc2e4ee, on the deterministic
// configurations: sync runs of any worker count, hybrid with a single
// group, and a fixed scheduled rotation. The overlapped exchange must
// reproduce them bit for bit with the fp32 codec — the contract that
// overlapping changed the execution schedule, not the arithmetic.
// goldenSchedUneven was captured from the serialized scheduled trainer
// (one group update after another, each pushing every layer after its
// whole backward) at commit 2ddec40, over a non-rotating schedule with the
// int8 wire; the scheduled runs now go through the overlapped hybrid loop.
//
// The hash is FNV-1a over the little-endian float32 bits of every final
// weight, in layer/param/element order. All inputs are repo-deterministic
// (own RNG, fixed-order reductions, bitwise-equal AVX/scalar kernels), so
// these values are platform-stable.
const (
	goldenSyncW1      = uint64(0x46aaedfd588d1e54)
	goldenSyncW4      = uint64(0x45b2eeaf89828e20)
	goldenHybridG1W2  = uint64(0x63f276ece155e412)
	goldenSchedG2     = uint64(0x9a12965b9b6ebfaa)
	goldenSchedUneven = uint64(0xd812ca7c84110e70)
)

func goldenProblem() core.Problem {
	rng := tensor.NewRNG(11)
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(16), 48, 0.5, rng)
	cfg := hep.ModelConfig{Name: "g", ImageSize: 16, Filters: 6, ConvUnits: 3, Classes: 2}
	return hep.NewTrainingProblem(ds, cfg, 77)
}

func weightHash(weights [][][]float32) uint64 {
	var h uint64 = 1469598103934665603
	for _, layer := range weights {
		for _, blob := range layer {
			for _, v := range blob {
				bits := math.Float32bits(v)
				for s := 0; s < 32; s += 8 {
					h ^= uint64((bits >> s) & 0xff)
					h *= 1099511628211
				}
			}
		}
	}
	return h
}

func goldenSchedule() []core.ScheduledEvent {
	var sched []core.ScheduledEvent
	for it := 0; it < 8; it++ {
		for g := 0; g < 2; g++ {
			sched = append(sched, core.ScheduledEvent{Group: g, Time: float64(it*2+g) * 0.1})
		}
	}
	return sched
}

// unevenSchedule merges three groups' iteration durations the way Fig 8
// does (BuildSchedule): group 0 fastest, group 2 slowest, each with its
// own jitter, so the order never settles into a rotation.
func unevenSchedule() []core.ScheduledEvent {
	durs := make([][]float64, 3)
	for g := range durs {
		for i := 0; i < 8; i++ {
			durs[g] = append(durs[g], 0.05*float64(g+2)+0.013*float64((i*(g+2)+g)%5))
		}
	}
	return core.BuildSchedule(durs)
}

// TestGoldenTrajectoriesMatchPreRefactor pins the fp32 weight trajectories
// to the pre-refactor trainer, and the uneven int8 schedule to the
// serialized scheduled trainer.
func TestGoldenTrajectoriesMatchPreRefactor(t *testing.T) {
	p := goldenProblem()
	check := func(name string, want uint64, res core.Result) {
		t.Helper()
		if got := weightHash(res.FinalWeights); got != want {
			t.Errorf("%s: weight trajectory diverged from pre-refactor golden: %#016x, want %#016x",
				name, got, want)
		}
	}
	check("sync-w1", goldenSyncW1, core.TrainSync(p, core.Config{
		Groups: 1, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewSGD(0.02, 0.9), Seed: 5}))
	check("sync-w4", goldenSyncW4, core.TrainSync(p, core.Config{
		Groups: 1, WorkersPerGroup: 4, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewAdam(2e-3), Seed: 5}))
	check("hybrid-g1w2", goldenHybridG1W2, core.TrainHybrid(p, core.Config{
		Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewAdam(2e-3), Seed: 5}))
	check("sched-g2", goldenSchedG2, core.TrainScheduled(p, core.Config{
		Groups: 2, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 8,
		Solver: opt.NewAdam(2e-3), Seed: 5}, goldenSchedule()))
	// The explicit fp32 codec spelling must be the zero value's path too.
	check("sync-w1-fp32", goldenSyncW1, core.TrainSync(p, core.Config{
		Groups: 1, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewSGD(0.02, 0.9), Seed: 5, Codec: "fp32"}))
	// Three groups' staleness under a non-rotating order, and every
	// (group, layer) int8 rounding stream: the turn must cover the whole
	// exchange, not just the compute. On one P the goroutine a channel
	// send readies runs next, so a root that passed its turn on before its
	// pushes landed would be overtaken every time, not only when the
	// scheduler happens to interleave that way.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	check("sched-uneven-g3-int8", goldenSchedUneven, core.TrainScheduled(p, core.Config{
		Groups: 3, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 8,
		Solver: opt.NewAdam(2e-3), Seed: 5, Codec: "int8"}, unevenSchedule()))
}

// TestPrefetchTrajectoriesMatchGolden holds every trainer's double-buffered
// prefetcher to the goldens and to an exact staging account: each worker
// stages its share of every group iteration once, through the pipeline,
// and the trajectory is the blocking reference's bit for bit — prefetch
// moved the staging copies off the critical path, not the arithmetic.
func TestPrefetchTrajectoriesMatchGolden(t *testing.T) {
	p := goldenProblem()
	check := func(name string, want uint64, cfg core.Config, res core.Result) {
		t.Helper()
		if got := weightHash(res.FinalWeights); got != want {
			t.Errorf("%s: prefetched weight trajectory diverged from golden: %#016x, want %#016x",
				name, got, want)
		}
		iters := int64(len(res.Stats))
		if iters == 0 {
			t.Fatalf("%s: run recorded no iterations", name)
		}
		wantBatches, wantSamples := iters*int64(cfg.WorkersPerGroup), iters*int64(cfg.GroupBatch)
		if res.Ingest.Batches != wantBatches || res.Ingest.Samples != wantSamples {
			t.Errorf("%s: staged %d batches / %d samples over %d group iterations, want %d / %d",
				name, res.Ingest.Batches, res.Ingest.Samples, iters, wantBatches, wantSamples)
		}
	}
	sync4 := core.Config{Groups: 1, WorkersPerGroup: 4, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewAdam(2e-3), Seed: 5}
	check("sync-w4", goldenSyncW4, sync4, core.TrainSync(p, sync4))
	hybrid := core.Config{Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewAdam(2e-3), Seed: 5}
	check("hybrid-g1w2", goldenHybridG1W2, hybrid, core.TrainHybrid(p, hybrid))
	sched := core.Config{Groups: 2, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 8,
		Solver: opt.NewAdam(2e-3), Seed: 5}
	check("sched-g2", goldenSchedG2, sched, core.TrainScheduled(p, sched, goldenSchedule()))
}

// TestEmptyShardIsSkippedNotStaged is the Split(parts > n) regression: a
// dataset whose epoch tail batch is smaller than the worker group leaves
// some ranks with zero-sample shards. Those ranks must idle through the
// iteration (still joining every collective) rather than staging a zero
// batch or compiling a zero-sample plan.
func TestEmptyShardIsSkippedNotStaged(t *testing.T) {
	rng := tensor.NewRNG(17)
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(16), 14, 0.5, rng)
	cfg := hep.ModelConfig{Name: "tail", ImageSize: 16, Filters: 6, ConvUnits: 3, Classes: 2}
	p := hep.NewTrainingProblem(ds, cfg, 77)

	// 14 samples, batch 12, 4 workers: iteration 2 draws the 2-sample epoch
	// tail, splitting 1/1/0/0 — two workers idle.
	res := core.TrainSync(p, core.Config{Groups: 1, WorkersPerGroup: 4, GroupBatch: 12, Iterations: 4,
		Solver: opt.NewSGD(0.02, 0.9), Seed: 5})
	for i, s := range res.Stats {
		if math.IsNaN(s.Loss) || math.IsInf(s.Loss, 0) {
			t.Fatalf("iteration %d produced loss %v", i, s.Loss)
		}
	}
	// Only the non-empty shards were staged: the epoch alternates full
	// 12-sample batches (4 shards of 3) with 2-sample tails (2 singleton
	// shards, 2 workers idle) — 4+2+4+2 staged batches over 28 samples.
	if got := res.Ingest.Batches; got != 12 {
		t.Errorf("run staged %d batches, want 12 (zero shards skipped)", got)
	}
	if got := res.Ingest.Samples; got != 28 {
		t.Errorf("run staged %d samples, want 28", got)
	}
}

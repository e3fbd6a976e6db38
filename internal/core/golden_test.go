package core_test

import (
	"math"
	"testing"

	"deep15pf/internal/core"
	"deep15pf/internal/hep"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

// The fingerprints below were captured from the pre-refactor trainer (the
// serialized whole-backward / blocking-collective / ps.Fleet.UpdateAll
// path) at commit dc2e4ee, on the deterministic configurations: sync runs
// of any worker count, hybrid with a single group, and a fixed scheduled
// rotation. The refactored streamed/overlapped machinery must reproduce
// them bit for bit whenever Overlap is off and the codec is fp32 — the
// acceptance contract that the multi-layer refactor changed the execution
// schedule, not the arithmetic.
//
// The hash is FNV-1a over the little-endian float32 bits of every final
// weight, in layer/param/element order. All inputs are repo-deterministic
// (own RNG, fixed-order reductions, bitwise-equal AVX/scalar kernels), so
// these values are platform-stable.
const (
	goldenSyncW1     = uint64(0x46aaedfd588d1e54)
	goldenSyncW4     = uint64(0x45b2eeaf89828e20)
	goldenHybridG1W2 = uint64(0x63f276ece155e412)
	goldenSchedG2    = uint64(0x9a12965b9b6ebfaa)
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

// TestGoldenTrajectoriesMatchPreRefactor pins the fp32/lockstep weight
// trajectories to the pre-refactor trainer.
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
}

// TestPrefetchTrajectoriesMatchGolden extends the golden pins past the
// double buffer every run gets by default: at deeper lookaheads (and with
// prefetch composed with the PR 3 overlap) every deterministic
// configuration must still reproduce the pre-refactor fingerprints bit for
// bit — prefetch moved the staging copies off the critical path, not the
// arithmetic.
func TestPrefetchTrajectoriesMatchGolden(t *testing.T) {
	p := goldenProblem()
	check := func(name string, want uint64, res core.Result) {
		t.Helper()
		if got := weightHash(res.FinalWeights); got != want {
			t.Errorf("%s: prefetched weight trajectory diverged from golden: %#016x, want %#016x",
				name, got, want)
		}
		if res.Ingest.Batches == 0 {
			t.Errorf("%s: prefetched run recorded no staged batches", name)
		}
	}
	check("sync-w1-prefetch", goldenSyncW1, core.TrainSync(p, core.Config{
		Groups: 1, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewSGD(0.02, 0.9), Seed: 5, Prefetch: 2}))
	check("sync-w4-prefetch", goldenSyncW4, core.TrainSync(p, core.Config{
		Groups: 1, WorkersPerGroup: 4, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewAdam(2e-3), Seed: 5, Prefetch: 3}))
	check("hybrid-g1w2-prefetch", goldenHybridG1W2, core.TrainHybrid(p, core.Config{
		Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewAdam(2e-3), Seed: 5, Prefetch: 2}))
	check("hybrid-g1w2-prefetch-overlap", goldenHybridG1W2, core.TrainHybrid(p, core.Config{
		Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewAdam(2e-3), Seed: 5, Prefetch: 2, Overlap: true}))
	check("sched-g2-prefetch", goldenSchedG2, core.TrainScheduled(p, core.Config{
		Groups: 2, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 8,
		Solver: opt.NewAdam(2e-3), Seed: 5, Prefetch: 2}, goldenSchedule()))
}

// TestEmptyShardIsSkippedNotStaged is the Split(parts > n) regression: a
// dataset whose epoch tail batch is smaller than the worker group leaves
// some ranks with zero-sample shards. Those ranks must idle through the
// iteration (still joining every collective) rather than staging a zero
// batch or compiling a zero-sample plan — at every prefetch depth, with
// identical trajectories.
func TestEmptyShardIsSkippedNotStaged(t *testing.T) {
	rng := tensor.NewRNG(17)
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(16), 14, 0.5, rng)
	cfg := hep.ModelConfig{Name: "tail", ImageSize: 16, Filters: 6, ConvUnits: 3, Classes: 2}
	p := hep.NewTrainingProblem(ds, cfg, 77)

	// 14 samples, batch 12, 4 workers: iteration 2 draws the 2-sample epoch
	// tail, splitting 1/1/0/0 — two workers idle.
	base := core.Config{Groups: 1, WorkersPerGroup: 4, GroupBatch: 12, Iterations: 4, Seed: 5}
	base.Solver = opt.NewSGD(0.02, 0.9)
	double := core.TrainSync(p, base) // Prefetch 0: the double buffer

	pf := base
	pf.Solver = opt.NewSGD(0.02, 0.9)
	pf.Prefetch = 2
	prefetched := core.TrainSync(p, pf)

	if weightHash(double.FinalWeights) != weightHash(prefetched.FinalWeights) {
		t.Error("empty-shard run: lookahead 2 diverged from lookahead 1")
	}
	for _, res := range []core.Result{double, prefetched} {
		for i, s := range res.Stats {
			if math.IsNaN(s.Loss) || math.IsInf(s.Loss, 0) {
				t.Fatalf("iteration %d produced loss %v", i, s.Loss)
			}
		}
	}
	// Only the non-empty shards were staged: the epoch alternates full
	// 12-sample batches (4 shards of 3) with 2-sample tails (2 singleton
	// shards, 2 workers idle) — 4+2+4+2 staged batches over 28 samples.
	if got := prefetched.Ingest.Batches; got != 12 {
		t.Errorf("prefetched run staged %d batches, want 12 (zero shards skipped)", got)
	}
	if got := prefetched.Ingest.Samples; got != 28 {
		t.Errorf("prefetched run staged %d samples, want 28", got)
	}
}

// TestOverlapIsBitwiseNeutral: pipelining the exchange with the backward
// pass reorders work, not arithmetic — on deterministic configurations the
// overlapped trajectories must equal the lockstep ones bit for bit.
func TestOverlapIsBitwiseNeutral(t *testing.T) {
	p := goldenProblem()
	base := core.Config{Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: 10, Seed: 5}

	lock := base
	lock.Solver = opt.NewAdam(2e-3)
	over := base
	over.Solver = opt.NewAdam(2e-3)
	over.Overlap = true

	a := core.TrainHybrid(p, lock)
	b := core.TrainHybrid(p, over)
	if weightHash(a.FinalWeights) != weightHash(b.FinalWeights) {
		t.Error("hybrid: overlap changed the weight trajectory")
	}
	for i := range a.Stats {
		if a.Stats[i].Loss != b.Stats[i].Loss {
			t.Fatalf("hybrid iter %d: lockstep loss %v vs overlapped %v", i, a.Stats[i].Loss, b.Stats[i].Loss)
		}
	}

	lock.Solver = opt.NewSGD(0.02, 0.9)
	over.Solver = opt.NewSGD(0.02, 0.9)
	as := core.TrainSync(p, lock)
	bs := core.TrainSync(p, over)
	if weightHash(as.FinalWeights) != weightHash(bs.FinalWeights) {
		t.Error("sync: overlap changed the weight trajectory")
	}
}

// TestShardedPSIsBitwiseNeutral: flat-range PS sharding must not change
// the trajectory either (elementwise solvers).
func TestShardedPSIsBitwiseNeutral(t *testing.T) {
	p := goldenProblem()
	cfg := core.Config{Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: 10,
		Seed: 5, Overlap: true}
	cfg.Solver = opt.NewAdam(2e-3)
	plain := core.TrainHybrid(p, cfg)
	cfg.Solver = opt.NewAdam(2e-3)
	cfg.PSShardElems = 4096
	sharded := core.TrainHybrid(p, cfg)
	if weightHash(plain.FinalWeights) != weightHash(sharded.FinalWeights) {
		t.Error("PS sharding changed the weight trajectory")
	}
}

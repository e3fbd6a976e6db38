package core_test

import (
	"math"
	"testing"

	"deep15pf/internal/core"
	"deep15pf/internal/hep"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

// tinyProblem builds a small HEP classification problem for trainer tests.
func tinyProblem(t *testing.T, nSamples int) core.Problem {
	t.Helper()
	rng := tensor.NewRNG(11)
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(16), nSamples, 0.5, rng)
	cfg := hep.ModelConfig{Name: "t", ImageSize: 16, Filters: 6, ConvUnits: 3, Classes: 2}
	return hep.NewTrainingProblem(ds, cfg, 77)
}

func TestSyncTrainingReducesLoss(t *testing.T) {
	p := tinyProblem(t, 48)
	res := core.TrainSync(p, core.Config{
		Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: 30,
		Solver: opt.NewAdam(2e-3), Seed: 1,
	})
	if len(res.Stats) != 30 {
		t.Fatalf("stats = %d", len(res.Stats))
	}
	first := meanLoss(res.Stats[:5])
	last := meanLoss(res.Stats[25:])
	if last >= first {
		t.Fatalf("sync training did not learn: %.4f -> %.4f", first, last)
	}
	if res.MeanStaleness != 0 {
		t.Fatal("sync must have zero staleness")
	}
}

func TestSyncWorkerCountInvariance(t *testing.T) {
	// Data parallelism must not change the math: 1 worker and 4 workers
	// with the same seed produce the same loss trajectory (up to the
	// deterministic reduction's float tolerance).
	p := tinyProblem(t, 32)
	cfg := core.Config{Groups: 1, GroupBatch: 16, Iterations: 6, Seed: 3}
	cfg.Solver = opt.NewSGD(0.01, 0.9)
	cfg.WorkersPerGroup = 1
	r1 := core.TrainSync(p, cfg)
	cfg.Solver = opt.NewSGD(0.01, 0.9)
	cfg.WorkersPerGroup = 4
	r4 := core.TrainSync(p, cfg)
	for i := range r1.Stats {
		if math.Abs(r1.Stats[i].Loss-r4.Stats[i].Loss) > 1e-3 {
			t.Fatalf("iter %d: 1-worker loss %.6f vs 4-worker %.6f",
				i, r1.Stats[i].Loss, r4.Stats[i].Loss)
		}
	}
}

func TestHybridOneGroupMatchesSync(t *testing.T) {
	// With a single group the hybrid system degenerates to synchronous
	// training with the solver on the PS — trajectories must match.
	p := tinyProblem(t, 32)
	cfg := core.Config{Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: 8, Seed: 5}
	cfg.Solver = opt.NewSGD(0.02, 0.5)
	sync := core.TrainSync(p, cfg)
	cfg.Solver = opt.NewSGD(0.02, 0.5)
	hybrid := core.TrainHybrid(p, cfg)
	if len(sync.Stats) != len(hybrid.Stats) {
		t.Fatal("iteration counts differ")
	}
	for i := range sync.Stats {
		if math.Abs(sync.Stats[i].Loss-hybrid.Stats[i].Loss) > 1e-4 {
			t.Fatalf("iter %d: sync %.6f vs hybrid-1 %.6f",
				i, sync.Stats[i].Loss, hybrid.Stats[i].Loss)
		}
	}
	if hybrid.MeanStaleness != 0 {
		t.Fatalf("one group cannot be stale, got %v", hybrid.MeanStaleness)
	}
}

func TestHybridMultiGroupLearnsAndIsStale(t *testing.T) {
	p := tinyProblem(t, 64)
	res := core.TrainHybrid(p, core.Config{
		Groups: 4, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 12,
		Solver: opt.NewAdam(2e-3), Seed: 7,
	})
	if len(res.Stats) != 4*12 {
		t.Fatalf("stats = %d", len(res.Stats))
	}
	// Learning is judged on what the interleaving cannot reorder: the
	// trained weights' loss on a fixed batch against the initial weights'.
	// (The first and last losses in completion order hold whichever
	// groups' batches the scheduler happened to finish first and last.)
	rep := p.NewReplica()
	batch := make([]int, 64)
	for i := range batch {
		batch[i] = i
	}
	before := rep.ComputeGradients(batch)
	core.InstallWeights(rep.TrainableLayers(), res.FinalWeights)
	after := rep.ComputeGradients(batch)
	if after >= before {
		t.Fatalf("hybrid training did not learn: loss on all 64 samples %.4f -> %.4f", before, after)
	}
	// With 4 concurrently updating groups, staleness must be visible
	// (expected value near G−1 = 3 in steady state, >0 in any case).
	if res.MeanStaleness <= 0 {
		t.Fatal("asynchronous groups must produce staleness")
	}
	// Seq must be a permutation of 0..n-1 in order.
	for i, s := range res.Stats {
		if s.Seq != i {
			t.Fatalf("stats not in completion order at %d: seq %d", i, s.Seq)
		}
	}
}

func TestScheduledMatchesHybridSemantics(t *testing.T) {
	// A round-robin schedule with G groups must produce the same
	// staleness structure as the concurrent trainer in rotation:
	// steady-state staleness G−1, and the run must learn.
	p := tinyProblem(t, 64)
	groups := 3
	iters := 10
	var schedule []core.ScheduledEvent
	for it := 0; it < iters; it++ {
		for g := 0; g < groups; g++ {
			schedule = append(schedule, core.ScheduledEvent{Group: g, Time: float64(it*groups+g) * 0.1})
		}
	}
	res := core.TrainScheduled(p, core.Config{
		Groups: groups, WorkersPerGroup: 1, GroupBatch: 16, Iterations: iters,
		Solver: opt.NewAdam(2e-3), Seed: 9,
	}, schedule)
	if len(res.Stats) != groups*iters {
		t.Fatalf("stats = %d", len(res.Stats))
	}
	// After warmup, every update sees exactly G−1 intervening updates.
	tail := res.Stats[len(res.Stats)-groups:]
	for _, s := range tail {
		if s.Staleness != float64(groups-1) {
			t.Fatalf("steady-state staleness %v, want %d", s.Staleness, groups-1)
		}
	}
	if meanLoss(res.Stats[len(res.Stats)-6:]) >= meanLoss(res.Stats[:6]) {
		t.Fatal("scheduled run did not learn")
	}
	// Times must be carried through in order.
	for i := 1; i < len(res.Stats); i++ {
		if res.Stats[i].Time < res.Stats[i-1].Time {
			t.Fatal("stats out of time order")
		}
	}
}

func TestBuildSchedule(t *testing.T) {
	durs := [][]float64{{1, 1, 1}, {0.4, 0.4, 0.4}}
	sched := core.BuildSchedule(durs)
	if len(sched) != 6 {
		t.Fatalf("schedule length %d", len(sched))
	}
	// Group 1's iterations (0.4, 0.8, 1.2) interleave with group 0's (1, 2, 3).
	wantGroups := []int{1, 1, 0, 1, 0, 0}
	for i, ev := range sched {
		if ev.Group != wantGroups[i] {
			t.Fatalf("schedule order: %+v", sched)
		}
		if i > 0 && sched[i].Time < sched[i-1].Time {
			t.Fatal("schedule not sorted")
		}
	}
}

func TestTimeToLoss(t *testing.T) {
	res := core.Result{Stats: []core.IterStat{
		{Loss: 1.0, Time: 1},
		{Loss: 0.5, Time: 2},
		{Loss: 0.04, Time: 3},
		{Loss: 0.05, Time: 4},
	}}
	tt, ok := core.TimeToLoss(res, 0.05, 1)
	if !ok || tt != 3 {
		t.Fatalf("time-to-loss = %v ok=%v", tt, ok)
	}
	// Smoothing over 2: mean(0.04, 0.05)=0.045 ≤ 0.05 at t=4.
	tt, ok = core.TimeToLoss(res, 0.05, 2)
	if !ok || tt != 4 {
		t.Fatalf("smoothed time-to-loss = %v", tt)
	}
	if _, ok := core.TimeToLoss(res, 0.001, 1); ok {
		t.Fatal("unreachable target must report !ok")
	}
}

func TestConfigValidation(t *testing.T) {
	p := tinyProblem(t, 16)
	mustPanic := func(cfg core.Config) {
		defer func() { _ = recover() }()
		core.TrainSync(p, cfg)
		t.Fatalf("expected panic: %+v", cfg)
	}
	mustPanic(core.Config{Groups: 1, WorkersPerGroup: 0, GroupBatch: 8, Iterations: 1, Solver: opt.NewSGD(0.1, 0)})
	mustPanic(core.Config{Groups: 1, WorkersPerGroup: 3, GroupBatch: 8, Iterations: 1, Solver: opt.NewSGD(0.1, 0)}) // uneven split
	mustPanic(core.Config{Groups: 1, WorkersPerGroup: 1, GroupBatch: 8, Iterations: 1})                             // no solver
	mustPanic(core.Config{Groups: 2, WorkersPerGroup: 1, GroupBatch: 8, Iterations: 1, Solver: opt.NewSGD(0.1, 0)}) // sync with 2 groups
}

func meanLoss(stats []core.IterStat) float64 {
	var s float64
	for _, st := range stats {
		s += st.Loss
	}
	return s / float64(len(stats))
}

func TestInt8CodecTrainsCloseToFp32(t *testing.T) {
	// Same deterministic single-group run through the fp32 and int8 PS
	// wires: the quantised exchange must still learn, stay close to the
	// fp32 trajectory, and move ≥3x fewer gradient bytes.
	p := tinyProblem(t, 64)
	base := core.Config{Groups: 1, WorkersPerGroup: 2, GroupBatch: 16,
		Iterations: 30, Seed: 7}

	base.Solver = opt.NewAdam(2e-3)
	base.Codec = "fp32"
	fp32 := core.TrainHybrid(p, base)
	base.Solver = opt.NewAdam(2e-3)
	base.Codec = "int8"
	int8res := core.TrainHybrid(p, base)

	if f, l := meanLoss(int8res.Stats[:5]), meanLoss(int8res.Stats[25:]); l >= f {
		t.Fatalf("int8 exchange did not learn: %.4f -> %.4f", f, l)
	}
	a, b := fp32.FinalLoss, int8res.FinalLoss
	if diff := math.Abs(a - b); diff > 0.25*math.Abs(a)+0.05 {
		t.Fatalf("int8 final loss %.4f too far from fp32 %.4f", b, a)
	}
	if fp32.Wire.Pushes != int8res.Wire.Pushes || fp32.Wire.Pushes == 0 {
		t.Fatalf("push counts differ: %d vs %d", fp32.Wire.Pushes, int8res.Wire.Pushes)
	}
	if ratio := float64(fp32.Wire.GradBytes) / float64(int8res.Wire.GradBytes); ratio < 3 {
		t.Fatalf("int8 gradient wire reduction %.2fx < 3x", ratio)
	}
	// Weight return stays fp32 in both configurations.
	if fp32.Wire.WeightBytes != int8res.Wire.WeightBytes {
		t.Fatal("weight-return bytes must not depend on the gradient codec")
	}
}

func TestHybridOverlapMultiGroupLearns(t *testing.T) {
	// The overlapped exchange under real cross-group asynchrony with
	// intra-group all-reduce and the int8 wire (the production
	// configuration): must learn and show staleness, like the one-worker
	// multigroup test above.
	p := tinyProblem(t, 64)
	res := core.TrainHybrid(p, core.Config{
		Groups: 4, WorkersPerGroup: 2, GroupBatch: 16, Iterations: 12,
		Solver: opt.NewAdam(2e-3), Seed: 7, Codec: "int8",
	})
	if len(res.Stats) != 4*12 {
		t.Fatalf("stats = %d", len(res.Stats))
	}
	first := meanLoss(res.Stats[:8])
	last := meanLoss(res.Stats[len(res.Stats)-8:])
	if last >= first {
		t.Fatalf("overlapped hybrid did not learn: %.4f -> %.4f", first, last)
	}
	if res.MeanStaleness <= 0 {
		t.Fatal("asynchronous groups must produce staleness")
	}
	if res.Wire.Pushes == 0 || res.Wire.GradBytes == 0 {
		t.Fatalf("wire accounting missing: %+v", res.Wire)
	}
}

func TestUnknownCodecPanics(t *testing.T) {
	p := tinyProblem(t, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown codec")
		}
	}()
	core.TrainHybrid(p, core.Config{Groups: 1, WorkersPerGroup: 1, GroupBatch: 8,
		Iterations: 1, Solver: opt.NewSGD(0.1, 0), Codec: "fp64"})
}

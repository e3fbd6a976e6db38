package core_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"deep15pf/internal/ckpt"
	"deep15pf/internal/core"
	"deep15pf/internal/opt"
)

// The resume golden gate: training 2N iterations straight must equal
// training N iterations, snapshotting, restoring into a FRESH set of
// objects (a fresh process in the CI smoke step), and training N more —
// bit for bit, for every deterministic trainer configuration. The
// uninterrupted fingerprints are the
// same constants golden_test.go pins, so this test also proves that
// checkpointing itself (sync or async) never perturbs a trajectory.

// trainHalves runs `first` iterations with a checkpoint at the end, then a
// fresh resumed run to `total`, returning the resumed result.
func trainHalves(t *testing.T, p core.Problem, cfg core.Config, mk func() opt.Solver, first, total int, run func(core.Config) core.Result) core.Result {
	t.Helper()
	dir := t.TempDir()
	half := cfg
	half.Solver = mk()
	half.Iterations = first
	half.Checkpoint = core.CheckpointConfig{Dir: dir, Every: first, Async: true}
	hres := run(half)
	if hres.Ckpt.Snapshots != 1 {
		t.Fatalf("first half wrote %d snapshots, want 1", hres.Ckpt.Snapshots)
	}

	resumed := cfg
	resumed.Solver = mk()
	resumed.Iterations = total
	resumed.Checkpoint = core.CheckpointConfig{Dir: dir, Resume: true}
	return run(resumed)
}

func TestResumeMatchesGoldenSync(t *testing.T) {
	p := goldenProblem()
	base := core.Config{Groups: 1, WorkersPerGroup: 1, GroupBatch: 16, Seed: 5}
	res := trainHalves(t, p, base, func() opt.Solver { return opt.NewSGD(0.02, 0.9) }, 5, 10, func(c core.Config) core.Result {
		return core.TrainSync(p, c)
	})
	if got := weightHash(res.FinalWeights); got != goldenSyncW1 {
		t.Errorf("sync-w1 resumed trajectory diverged: %#016x, want %#016x", got, goldenSyncW1)
	}

	// Multi-worker ADAM.
	multi := core.Config{Groups: 1, WorkersPerGroup: 4, GroupBatch: 16, Seed: 5}
	res = trainHalves(t, p, multi, func() opt.Solver { return opt.NewAdam(2e-3) }, 5, 10, func(c core.Config) core.Result {
		return core.TrainSync(p, c)
	})
	if got := weightHash(res.FinalWeights); got != goldenSyncW4 {
		t.Errorf("sync-w4 resumed trajectory diverged: %#016x, want %#016x", got, goldenSyncW4)
	}
}

func TestResumeMatchesGoldenHybrid(t *testing.T) {
	p := goldenProblem()
	base := core.Config{Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Seed: 5}
	res := trainHalves(t, p, base, func() opt.Solver { return opt.NewAdam(2e-3) }, 5, 10, func(c core.Config) core.Result {
		return core.TrainHybrid(p, c)
	})
	if got := weightHash(res.FinalWeights); got != goldenHybridG1W2 {
		t.Errorf("hybrid-g1w2 resumed trajectory diverged: %#016x, want %#016x", got, goldenHybridG1W2)
	}
}

func TestResumeMatchesGoldenScheduled(t *testing.T) {
	p := goldenProblem()
	sched := goldenSchedule()
	dir := t.TempDir()

	// First half: the first 8 schedule events (4 per group), snapshotting
	// every 4 updates — the paper's 1-in-10 cadence scaled to the run.
	half := core.Config{Groups: 2, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 8,
		Solver: opt.NewAdam(2e-3), Seed: 5,
		Checkpoint: core.CheckpointConfig{Dir: dir, Every: 4, Async: true, SamplesPerEpoch: 48}}
	hres := core.TrainScheduled(p, half, sched[:8])
	if hres.Ckpt.Snapshots != 2 {
		t.Fatalf("first half wrote %d snapshots, want 2", hres.Ckpt.Snapshots)
	}

	// Resume with the SAME full schedule: the trainer replays past each
	// group's checkpointed cursor and continues.
	resumed := core.Config{Groups: 2, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 8,
		Solver: opt.NewAdam(2e-3), Seed: 5,
		Checkpoint: core.CheckpointConfig{Dir: dir, Resume: true}}
	res := core.TrainScheduled(p, resumed, sched)
	if got := weightHash(res.FinalWeights); got != goldenSchedG2 {
		t.Errorf("sched-g2 resumed trajectory diverged: %#016x, want %#016x", got, goldenSchedG2)
	}
	// The resumed run performed only the second half's updates.
	if len(res.Stats) != 8 {
		t.Errorf("resumed run recorded %d updates, want 8", len(res.Stats))
	}

	// A scheduled snapshot's step counts updates across both groups, so
	// its epoch is step × batch ÷ samples per epoch — once, not once per
	// group: 4×16/48 → 1 and 8×16/48 → 2.
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := store.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 2 || vs[0].Step != 4 || vs[0].Epoch != 1 || vs[1].Step != 8 || vs[1].Epoch != 2 {
		t.Errorf("scheduled snapshots recorded (step, epoch) %v, want (4, 1) and (8, 2)", stepEpochs(vs))
	}
}

func stepEpochs(vs []ckpt.Manifest) [][2]int {
	out := make([][2]int, len(vs))
	for i, m := range vs {
		out[i] = [2]int{m.Step, m.Epoch}
	}
	return out
}

// TestCheckpointingDoesNotPerturbTraining: a run that snapshots every 2
// iterations (async, with retention) finishes with the same weights as one
// that never checkpoints.
func TestCheckpointingDoesNotPerturbTraining(t *testing.T) {
	p := goldenProblem()
	dir := t.TempDir()
	cfg := core.Config{Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewSGD(0.02, 0.9), Seed: 5,
		Checkpoint: core.CheckpointConfig{Dir: dir, Every: 2, Async: true, Keep: 3, Arch: "golden", SamplesPerEpoch: 48}}
	res := core.TrainSync(p, cfg)

	plain := core.Config{Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewSGD(0.02, 0.9), Seed: 5}
	want := core.TrainSync(p, plain)
	if weightHash(res.FinalWeights) != weightHash(want.FinalWeights) {
		t.Error("checkpointing changed the weight trajectory")
	}
	if res.Ckpt.Snapshots != 5 {
		t.Errorf("recorded %d snapshots, want 5", res.Ckpt.Snapshots)
	}
	if res.Ckpt.StageSeconds <= 0 || res.Ckpt.WriteSeconds <= 0 {
		t.Errorf("checkpoint accounting empty: %+v", res.Ckpt)
	}

	// Retention held: only the newest 3 of 5 versions remain, and the
	// newest manifest carries the run's metadata and the final weights'
	// fingerprint.
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := store.Versions()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0].Version != 3 || vs[2].Version != 5 {
		t.Fatalf("retention left %v", vs)
	}
	last := vs[2]
	if last.Step != 10 || last.Arch != "golden" || last.Epoch != 10*16/48 {
		t.Fatalf("final manifest %+v", last)
	}
	if res.Ckpt.LastVersion != 5 {
		t.Errorf("stats last version %d, want 5", res.Ckpt.LastVersion)
	}
}

// TestResumeFreshStoreStartsFresh: Resume against an empty directory is a
// cold start, so one flag serves the first run and every restart.
func TestResumeFreshStoreStartsFresh(t *testing.T) {
	p := goldenProblem()
	cfg := core.Config{Groups: 1, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 10,
		Solver: opt.NewSGD(0.02, 0.9), Seed: 5,
		Checkpoint: core.CheckpointConfig{Dir: t.TempDir(), Resume: true}}
	res := core.TrainSync(p, cfg)
	if got := weightHash(res.FinalWeights); got != goldenSyncW1 {
		t.Errorf("fresh-store resume diverged from golden: %#016x", got)
	}
}

// TestResumeRejectsWrongArch: a manifest from another model family must
// refuse to resume, before any weight loads.
func TestResumeRejectsWrongArch(t *testing.T) {
	p := goldenProblem()
	dir := t.TempDir()
	first := core.Config{Groups: 1, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 4,
		Solver: opt.NewSGD(0.02, 0.9), Seed: 5,
		Checkpoint: core.CheckpointConfig{Dir: dir, Every: 4, Arch: "hep-small"}}
	core.TrainSync(p, first)

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("arch mismatch did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "hep-small") {
			t.Fatalf("panic %v does not name the offending arch", r)
		}
	}()
	bad := core.Config{Groups: 1, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 8,
		Solver: opt.NewSGD(0.02, 0.9), Seed: 5,
		Checkpoint: core.CheckpointConfig{Dir: dir, Resume: true, Arch: "climate-small"}}
	core.TrainSync(p, bad)
}

// TestResumeSurvivesCorruptNewestVersion is deliberately absent: a corrupt
// newest version fails the load loudly (CRC), which is the right call for
// training — resuming silently from an older state would repeat work the
// operator believes is done. Scoring refuses a corrupt newest version the
// same way (store.Poll in cmd/labelfactory).

// TestCheckpointEveryWithoutDirPanics pins the config validation.
func TestCheckpointEveryWithoutDirPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Every without Dir did not panic")
		}
	}()
	p := goldenProblem()
	core.TrainSync(p, core.Config{Groups: 1, WorkersPerGroup: 1, GroupBatch: 16,
		Iterations: 2, Solver: opt.NewSGD(0.02, 0.9), Seed: 5,
		Checkpoint: core.CheckpointConfig{Every: 1}})
}

// TestStoreSurvivesProcessBoundarySimulation writes a snapshot, reopens
// the directory through fresh Store objects (the in-process stand-in for
// the CI kill-and-restart smoke), and checks the manifest fingerprint
// matches a fresh fingerprint of the restored weights.
func TestStoreSurvivesProcessBoundarySimulation(t *testing.T) {
	p := goldenProblem()
	dir := t.TempDir()
	cfg := core.Config{Groups: 1, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 6,
		Solver: opt.NewAdam(2e-3), Seed: 5,
		Checkpoint: core.CheckpointConfig{Dir: dir, Every: 3}}
	core.TrainSync(p, cfg)

	// "New process": nothing shared but the directory.
	store, err := ckpt.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, ok, err := store.Latest()
	if err != nil || !ok {
		t.Fatalf("latest: ok=%v err=%v", ok, err)
	}
	if m.Step != 6 {
		t.Fatalf("latest step %d", m.Step)
	}
	if err := store.Verify(m); err != nil {
		t.Fatal(err)
	}
	// The weights file is exactly what serve.Registry.Load consumes.
	if _, err := os.Stat(filepath.Join(store.VersionDir(m.Version), "weights.d15w")); err != nil {
		t.Fatal(err)
	}
}

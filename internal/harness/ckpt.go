package harness

import (
	"fmt"
	"os"
	"strings"

	"deep15pf/internal/ckpt"
	"deep15pf/internal/cluster"
	"deep15pf/internal/core"
	"deep15pf/internal/hep"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

// Checkpoint is the §V checkpoint-cost study plus the resume-identity
// demonstration behind PR 5's store:
//
//   - modelled: the climate configuration snapshots once per 10
//     iterations ("in some iterations, a checkpointing is performed...");
//     the table compares the synchronous writer (whole flush on the
//     critical path, as the paper ran) with the async double-buffered
//     writer, at several node counts — the exposed-write reduction is the
//     study's figure of merit;
//   - measured: a real TrainSync run checkpoints at its midpoint into a
//     ckpt store, a fresh run resumes from it, and the final-weight FNV
//     fingerprints of the resumed and uninterrupted runs are compared —
//     bit-exact resume, demonstrated end to end through the real files.
func Checkpoint(opts Options) Report {
	m := cluster.CoriPhaseII()
	p := cluster.ClimateProfile()
	iters := 4 * scalingIters(opts)

	var b strings.Builder
	t := newTable("filesystem", "nodes", "ckpt write/run", "exposed (sync)", "exposed (async)", "hidden")
	// Strong-scaling shape (fixed global batch): per-node compute shrinks
	// with node count, narrowing the window the background write hides in.
	// The "shared FS" rows divide the checkpoint bandwidth by 50 — the
	// contended-parallel-filesystem regime where even the async writer
	// cannot hide everything, so the exposed remainder is honest, not a
	// constant zero.
	for _, fs := range []struct {
		label string
		bw    float64
	}{{"burst buffer", m.CheckpointBandwidth}, {"shared FS", m.CheckpointBandwidth / 50}} {
		mc := m
		mc.CheckpointBandwidth = fs.bw
		for _, nodes := range []int{256, 4096} {
			base := cluster.RunConfig{
				Nodes: nodes, Groups: 1, BatchPerGroup: 8192, Iterations: iters,
				Seed: opts.Seed, CheckpointEvery: 10,
			}
			sync := cluster.Simulate(mc, p, base)
			async := base
			async.AsyncCheckpoint = true
			over := cluster.Simulate(mc, p, async)
			hidden := 0.0
			if sync.ExposedCkptSeconds > 0 {
				hidden = 1 - over.ExposedCkptSeconds/sync.ExposedCkptSeconds
			}
			t.addf("%s|%d|%.2fs|%.2fs|%.2fs|%.0f%%",
				fs.label, nodes, sync.CkptSeconds, sync.ExposedCkptSeconds, over.ExposedCkptSeconds, 100*hidden)
		}
	}
	b.WriteString("Climate snapshot cadence 1-in-10 (§V); async = double-buffered background writer.\n")
	b.WriteString(t.String())

	// Measured resume identity on a real (scaled-down) HEP training run.
	dir, err := os.MkdirTemp("", "d15-ckpt-study")
	if err != nil {
		return Report{ID: "checkpoint", Title: "Checkpoint store (§V)", Body: b.String() + "\n(resume study skipped: " + err.Error() + ")\n"}
	}
	defer os.RemoveAll(dir)
	rng := tensor.NewRNG(opts.Seed)
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(16), 48, 0.5, rng)
	cfg := hep.ModelConfig{Name: "ckpt-study", ImageSize: 16, Filters: 6, ConvUnits: 3, Classes: 2}
	problem := hep.NewTrainingProblem(ds, cfg, opts.Seed+1)
	total, half := 10, 5

	straight := core.TrainSync(problem, core.Config{
		Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: total,
		Solver: opt.NewAdam(2e-3), Seed: opts.Seed})
	core.TrainSync(problem, core.Config{
		Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: half,
		Solver: opt.NewAdam(2e-3), Seed: opts.Seed,
		Checkpoint: core.CheckpointConfig{Dir: dir, Every: half, Async: true, Arch: cfg.Name}})
	resumed := core.TrainSync(problem, core.Config{
		Groups: 1, WorkersPerGroup: 2, GroupBatch: 16, Iterations: total,
		Solver: opt.NewAdam(2e-3), Seed: opts.Seed,
		Checkpoint: core.CheckpointConfig{Dir: dir, Resume: true, Arch: cfg.Name}})

	fpStraight := ckpt.FingerprintWeights(straight.FinalWeights)
	fpResumed := ckpt.FingerprintWeights(resumed.FinalWeights)
	verdict := "bit-exact"
	if fpStraight != fpResumed {
		verdict = "DIVERGED"
	}
	fmt.Fprintf(&b, "\nResume identity (real run, ADAM, overlap+prefetch on): train %d straight vs train %d,\n"+
		"snapshot, resume to %d — fingerprints %016x vs %016x: %s.\n",
		total, half, total, fpStraight, fpResumed, verdict)
	return Report{ID: "checkpoint", Title: "Checkpoint store and continuous deployment (§V)", Body: b.String()}
}

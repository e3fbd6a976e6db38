package core

import (
	"fmt"
	"time"

	"deep15pf/internal/ckpt"
	"deep15pf/internal/nn"
	"deep15pf/internal/opt"
	"deep15pf/internal/ps"
)

// CheckpointConfig wires the trainers to a ckpt.Store. The paper books
// checkpointing directly into its sustained rate (one snapshot per 10
// iterations for climate, §V); with Async the snapshot is staged into a
// recycled buffer at the iteration boundary and flushed by a background
// writer while compute continues — the PR 3/4 overlap idiom applied to
// output I/O — so only the staging copy stays on the critical path.
type CheckpointConfig struct {
	// Dir is the checkpoint store directory. Required when Every > 0 or
	// Resume is set.
	Dir string
	// Every snapshots after every Every-th completed iteration: a sync
	// run's iterations, group 0's on a free-running hybrid run, and group
	// updates across all groups on a scheduled one. 0 disables
	// checkpointing.
	Every int
	// Async flushes snapshots on a background writer (double-buffered
	// staging); off, the whole write sits on the critical path.
	Async bool
	// Keep prunes the store to the newest Keep versions after each write
	// (0 = keep everything).
	Keep int
	// Arch names the architecture in the manifest so the serving side can
	// refuse a checkpoint from the wrong model family. Optional.
	Arch string
	// Problem names the workload (hep/climate/astro) in the manifest so the
	// serving side can refuse a checkpoint from the wrong science problem
	// even when architectures coincide. Optional.
	Problem string
	// SamplesPerEpoch, when set, lets the manifest carry an epoch number
	// (completed dataset passes) alongside the step.
	SamplesPerEpoch int
	// Resume restores the newest snapshot in Dir before training and
	// continues from its step. An empty store starts fresh (so one flag
	// serves both the first run and every restart). Resume is bit-exact
	// for the deterministic configurations the golden tests pin — fp32
	// wire, sync or single-group hybrid or scheduled runs — because the
	// snapshot carries optimizer state and the batch-stream cursor, and
	// batch RNG streams are replayed to the resume point.
	Resume bool
}

func (c CheckpointConfig) enabled() bool { return c.Every > 0 }

func (c CheckpointConfig) validate() {
	if c.Every < 0 {
		panic("core: negative checkpoint interval")
	}
	if c.Every > 0 && c.Dir == "" {
		panic("core: Checkpoint.Every set without Checkpoint.Dir")
	}
	if c.Resume && c.Dir == "" {
		panic("core: Checkpoint.Resume set without Checkpoint.Dir")
	}
}

// checkpointer drives a training run's snapshots: recycled staging buffers
// (two — the classic double buffer) feed a ckpt.Writer. It stages either
// from a worker replica's parameters plus its solver (sync mode) or from
// the PS fleet (hybrid/scheduled mode).
type checkpointer struct {
	cfg   CheckpointConfig
	batch int // samples per iteration per group

	store  *ckpt.Store
	writer *ckpt.Writer
	fleet  *ps.Fleet
	// views maps each staging snapshot to its [layer][param] weight
	// windows, the shape ps.Fleet.SnapshotInto stages into (fleet mode).
	views map[*ckpt.Snapshot][][][]float32
}

// flatParams flattens trainable layers into the snapshot's layer-major
// parameter order.
func flatParams(layers []nn.Layer) []*nn.Param {
	var out []*nn.Param
	for _, l := range layers {
		out = append(out, l.Params()...)
	}
	return out
}

// layerWeightViews exposes live parameter storage in the [layer][param]
// shape the fleet restore walks (views alias the params — a restore
// through them IS the install).
func layerWeightViews(layers []nn.Layer) [][][]float32 {
	out := make([][][]float32, len(layers))
	for i, l := range layers {
		for _, p := range l.Params() {
			out[i] = append(out[i], p.W.Data)
		}
	}
	return out
}

// newCheckpointer builds the run's snapshot machinery, or nil when
// checkpointing is off. layers supplies the staging geometry; fleet is nil
// for worker-side (sync) staging.
func newCheckpointer(cfg Config, layers []nn.Layer, fleet *ps.Fleet) *checkpointer {
	cc := cfg.Checkpoint
	if !cc.enabled() {
		return nil
	}
	store, err := ckpt.Open(cc.Dir)
	if err != nil {
		panic("core: " + err.Error())
	}
	ck := &checkpointer{
		cfg:   cc,
		batch: cfg.GroupBatch,
		store: store,
		fleet: fleet,
		views: make(map[*ckpt.Snapshot][][][]float32),
	}
	params := flatParams(layers)
	staging := []*ckpt.Snapshot{ckpt.NewStaging(params), ckpt.NewStaging(params)}
	for _, s := range staging {
		s.Arch = cc.Arch
		s.Problem = cc.Problem
		if fleet == nil {
			s.Solver = &opt.State{}
			continue
		}
		// Fleet mode: prebuild the per-layer weight windows into the
		// staging params and the per-layer state buffers (one solver
		// state per server), so a warm snapshot recycles everything.
		views := make([][][]float32, len(layers))
		s.Servers = make([][]opt.State, len(layers))
		flat := 0
		for i, l := range layers {
			n := len(l.Params())
			views[i] = make([][]float32, n)
			for j := 0; j < n; j++ {
				views[i][j] = s.Params[flat].W.Data
				flat++
			}
			s.Servers[i] = make([]opt.State, 1)
		}
		ck.views[s] = views
	}
	ck.writer = ckpt.NewWriter(store, cc.Async, cc.Keep, staging...)
	return ck
}

// due reports whether a snapshot fires after `completed` iterations.
func (ck *checkpointer) due(completed int) bool {
	return ck != nil && completed%ck.cfg.Every == 0
}

// epochOf converts completed group iterations, summed over every group,
// into completed dataset passes.
func (ck *checkpointer) epochOf(updates int) int {
	if ck.cfg.SamplesPerEpoch <= 0 {
		return 0
	}
	return updates * ck.batch / ck.cfg.SamplesPerEpoch
}

// syncSnapshot checkpoints a lockstep run from rank 0's replica and
// solver. Warm calls allocate nothing on the training goroutine: the
// staging buffers, solver-state slots and writer handoff are all recycled
// (the background flush itself pays a bounded handful of file-I/O
// allocations off-thread).
func (ck *checkpointer) syncSnapshot(step int, params []*nn.Param, solver opt.Solver) {
	s := ck.writer.Begin()
	t0 := time.Now()
	s.Step, s.Epoch = step, ck.epochOf(step)
	s.StageWeights(params)
	if !opt.CaptureState(solver, s.Solver, params) {
		s.Solver = nil // stateless solver: weights-only snapshot
	}
	ck.writer.Commit(s, time.Since(t0).Seconds())
	ck.check()
}

// fleetSnapshot checkpoints a PS-backed run from the fleet masters at step,
// after updates group iterations across all groups. groupIters and
// groupParams, when non-nil, record the scheduled trainer's per-group
// cursors and replica views (copied into recycled storage) — each group's
// weights are the master as of its own last push, a staleness realization
// resume must reproduce, not refetch.
func (ck *checkpointer) fleetSnapshot(step, updates int, groupIters []int, groupParams [][]*nn.Param) {
	s := ck.writer.Begin()
	t0 := time.Now()
	s.Step, s.Epoch = step, ck.epochOf(updates)
	ck.fleet.SnapshotInto(ck.views[s], s.Servers)
	if groupIters != nil {
		s.GroupIters = append(s.GroupIters[:0], groupIters...)
	} else {
		s.GroupIters = nil
	}
	if groupParams != nil {
		s.StageGroupWeights(groupParams)
	} else {
		s.GroupWeights = nil
	}
	ck.writer.Commit(s, time.Since(t0).Seconds())
	ck.check()
}

// check fails the run loudly on a snapshot write error: a trainer that
// believes it is durable but is not must not find out at restore time.
func (ck *checkpointer) check() {
	if err := ck.writer.Err(); err != nil {
		panic("core: " + err.Error())
	}
}

// close drains the writer and returns the run's checkpoint account.
func (ck *checkpointer) close() ckpt.Stats {
	if ck == nil {
		return ckpt.Stats{}
	}
	if err := ck.writer.Close(); err != nil {
		panic("core: ckpt: " + err.Error())
	}
	return ck.writer.Stats()
}

// resumeInto loads the newest snapshot in the configured store into params
// (nil when Resume is off or the store is empty — a fresh start). The
// manifest's arch must match the config's when both are set.
func resumeInto(cfg Config, params []*nn.Param) *ckpt.Restored {
	cc := cfg.Checkpoint
	if !cc.Resume {
		return nil
	}
	store, err := ckpt.Open(cc.Dir)
	if err != nil {
		panic("core: " + err.Error())
	}
	r, ok, err := store.LoadLatest(params)
	if err != nil {
		panic("core: resume: " + err.Error())
	}
	if !ok {
		return nil
	}
	if cc.Arch != "" && r.Manifest.Arch != "" && cc.Arch != r.Manifest.Arch {
		panic(fmt.Sprintf("core: resume: checkpoint is arch %q, run wants %q", r.Manifest.Arch, cc.Arch))
	}
	if cc.Problem != "" && r.Manifest.Problem != "" && cc.Problem != r.Manifest.Problem {
		panic(fmt.Sprintf("core: resume: checkpoint is problem %q, run wants %q", r.Manifest.Problem, cc.Problem))
	}
	return r
}

// checkResumeStep guards the concurrent trainers, whose step is a
// group-local iteration count: a checkpoint at or past the run length has
// nothing left to train.
func checkResumeStep(step, iterations int) {
	if step >= iterations {
		panic(fmt.Sprintf("core: resume: checkpoint step %d is already ≥ %d iterations", step, iterations))
	}
}

// groupCursors returns the iteration each group of a hybrid run resumes
// at. A scheduled snapshot carries one cursor per group (and the store has
// matched its group views to them); a free-running one only its step,
// which every group resumes from.
func groupCursors(r *ckpt.Restored, cfg Config) []int {
	if r.GroupIters != nil {
		if len(r.GroupIters) != cfg.Groups {
			panic(fmt.Sprintf("core: resume: checkpoint has %d group cursors, run has %d groups",
				len(r.GroupIters), cfg.Groups))
		}
		return append([]int(nil), r.GroupIters...)
	}
	checkResumeStep(r.Manifest.Step, cfg.Iterations)
	starts := make([]int, cfg.Groups)
	for g := range starts {
		starts[g] = r.Manifest.Step
	}
	return starts
}

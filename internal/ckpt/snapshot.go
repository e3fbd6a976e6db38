// Package ckpt is the checkpoint store: a directory of monotonically
// versioned, atomically written training snapshots that closes the
// train→score loop. The paper books checkpointing directly into its
// sustained rate ("in some iterations, a checkpointing is performed to
// save the current trained model", §V — one snapshot per 10 iterations for
// climate); production descendants of the pipeline (Khan et al. 2019's DES
// galaxy catalogs) continuously retrain and rescore. This package supplies
// both halves:
//
//   - the training side stages a Snapshot (weights + optimizer state +
//     progress cursors — enough for bit-exact resume) into recycled
//     buffers at an iteration boundary and a background Writer flushes it
//     while compute continues, the PR 3/4 overlap idiom applied to output
//     I/O;
//   - the scoring side takes the newest version whose manifest CRCs pass
//     (Store.Poll) and loads its weights through the serving registry
//     (cmd/labelfactory -ckpt-dir).
//
// A snapshot on disk is one directory, vNNNNNNN/, holding manifest.json
// (step, epoch, arch, FNV fingerprint, per-file CRCs), weights.d15w (the
// D15W blob serving already loads), and state.bin (solver state and
// cursors). Directories are written under a temporary name and renamed
// into place, so a concurrent reader only ever sees complete versions.
package ckpt

import (
	"math"

	"deep15pf/internal/nn"
	"deep15pf/internal/opt"
)

// Snapshot is one training checkpoint in memory: everything a fresh
// process needs to continue the run bit for bit (for deterministic
// configurations — fp32 wire, lockstep or single-group schedules; see
// core's resume notes for the asynchronous caveats).
type Snapshot struct {
	Step  int    // completed training iterations
	Epoch int    // completed dataset passes (informational)
	Arch  string // architecture name (serving compatibility check)

	// Problem is the workload the model was trained for (hep, climate,
	// astro). Serving consumers refuse to load a checkpoint whose problem
	// disagrees with the architecture they were asked to serve — the
	// model-zoo guard against pointing a watcher at the wrong store.
	// Empty in checkpoints written before the field existed.
	Problem string

	// Params are the weight blobs in trainable-layer-major order — the
	// same order core.Replica.TrainableLayers exposes and the same order
	// the D15W format validates by name.
	Params []*nn.Param

	// Solver is the worker-side solver state (synchronous training); nil
	// when the run keeps its state on the parameter servers instead.
	Solver *opt.State

	// Servers is the parameter-server solver state, one list per layer
	// holding the server's one state; nil for synchronous runs.
	Servers [][]opt.State

	// GroupIters is the scheduled trainer's per-group progress cursor;
	// nil for the concurrent trainers (their cursor is just Step).
	GroupIters []int

	// GroupWeights is the scheduled trainer's per-group replica view,
	// [group][param][elem] in Params order: each group's weights are the
	// master *as of that group's last push* — stale by every later push
	// from other groups — and that staleness is part of the trajectory,
	// so bit-exact resume must restore it rather than refetch the (newer)
	// master. Nil for the concurrent trainers.
	GroupWeights [][][]float32
}

// StageGroupWeights sizes (on first use) and fills the per-group weight
// staging from each group's live parameters; warm calls recycle.
func (s *Snapshot) StageGroupWeights(groups [][]*nn.Param) {
	if len(s.GroupWeights) != len(groups) {
		s.GroupWeights = make([][][]float32, len(groups))
	}
	for g, params := range groups {
		if len(s.GroupWeights[g]) != len(params) {
			s.GroupWeights[g] = make([][]float32, len(params))
		}
		for i, p := range params {
			if len(s.GroupWeights[g][i]) != p.W.Len() {
				s.GroupWeights[g][i] = make([]float32, p.W.Len())
			}
			copy(s.GroupWeights[g][i], p.W.Data)
		}
	}
}

// NewStaging builds a reusable staging snapshot shaped like params: names
// and sizes are cloned once, and every later StageWeights recycles the
// same storage — a warm staging pass touches no allocator, which is what
// keeps checkpoint iterations allocation-free on the training goroutine.
func NewStaging(params []*nn.Param) *Snapshot {
	s := &Snapshot{Params: make([]*nn.Param, len(params))}
	for i, p := range params {
		s.Params[i] = &nn.Param{Name: p.Name, W: p.W.Clone()}
	}
	return s
}

// StageWeights copies the current values of params (which must match the
// staging geometry) into the snapshot.
func (s *Snapshot) StageWeights(params []*nn.Param) {
	if len(params) != len(s.Params) {
		panic("ckpt: staging geometry mismatch")
	}
	for i, p := range params {
		copy(s.Params[i].W.Data, p.W.Data)
	}
}

// Fingerprint hashes the little-endian float32 bits of every parameter in
// order with FNV-1a — the same digest the golden trajectory tests pin, so
// a resumed run can be compared against an uninterrupted one across
// processes by two hex strings.
func Fingerprint(params []*nn.Param) uint64 {
	h := fnvOffset
	for _, p := range params {
		h = hashFloats(h, p.W.Data)
	}
	return h
}

// FingerprintWeights is Fingerprint over core's Result.FinalWeights wire
// format ([layer][param][elem]) — the same digest, so a trainer's printed
// fingerprint is directly comparable with store manifests across
// processes (the CI resume smoke diffs exactly these hex strings).
func FingerprintWeights(weights [][][]float32) uint64 {
	h := fnvOffset
	for _, layer := range weights {
		for _, blob := range layer {
			h = hashFloats(h, blob)
		}
	}
	return h
}

const (
	fnvOffset = uint64(1469598103934665603)
	fnvPrime  = uint64(1099511628211)
)

func hashFloats(h uint64, data []float32) uint64 {
	for _, v := range data {
		bits := uint64(math.Float32bits(v))
		for s := 0; s < 32; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

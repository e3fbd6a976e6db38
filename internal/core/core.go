// Package core implements the paper's primary contribution (§III-E): the
// hybrid distributed training architecture. Workers form compute groups;
// within a group data-parallel workers synchronise gradients with
// all-reduce; across groups updates flow asynchronously through dedicated
// per-layer parameter servers. The group count is the knob that trades
// statistical efficiency (staleness) against hardware efficiency
// (stragglers, small-batch throughput), tuned jointly with momentum per
// Mitliagkas et al. (the paper's [31]).
//
// There is one way to exchange gradients: every worker double-buffers its
// input, and starts each layer's all-reduce — and, on a group root, its
// push to that layer's one parameter server — the moment the backward
// pass has finished the layer (§III-D/E). Two loops drive it:
//
//   - TrainSync: fully synchronous data parallelism (1 logical group, no
//     parameter servers) — the paper's baseline configuration;
//   - TrainHybrid: G groups × W workers as real goroutines against real
//     ps.Fleet servers (asynchrony from actual concurrency).
//
// TrainScheduled is TrainHybrid with the groups taking turns in an
// externally supplied completion order — used to couple real SGD dynamics
// to the cluster simulator's timeline for the Fig 8 time-to-train study.
package core

import (
	"fmt"

	"deep15pf/internal/ckpt"
	"deep15pf/internal/comm"
	"deep15pf/internal/data"
	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/opt"
	"deep15pf/internal/ps"
)

// BatchSource yields batch index sets (typically epoch-shuffled).
type BatchSource interface {
	Next(size int) []int
}

// Problem binds a model family to a dataset.
type Problem interface {
	// NewReplica builds a model replica. Every call must produce an
	// identically initialised model (replicas start in lockstep).
	NewReplica() *Replica
	// NewBatchSource returns an independent index stream; distinct seeds
	// give distinct streams.
	NewBatchSource(seed uint64) BatchSource
}

// Config parameterises a training run.
type Config struct {
	Groups          int // compute groups (1 = synchronous)
	WorkersPerGroup int // data-parallel workers within each group
	GroupBatch      int // samples per group per iteration
	Iterations      int // iterations per group
	Solver          opt.Solver
	Seed            uint64

	// Codec selects the PS wire format: "" or "fp32" for identity, "int8"
	// for stochastic-rounding int8 with per-chunk scales (~4x less gradient
	// traffic). Intra-group all-reduce always stays fp32.
	Codec string

	// Overlap is ignored: every trainer overlaps each layer's exchange with
	// the backward pass.
	//
	// Deprecated: kept only because benchmark/ still sets it; it goes when
	// the benchmark is next revised.
	Overlap bool
	// Prefetch is ignored: every worker replica double-buffers its input,
	// staging the next batch on a background goroutine while the current
	// one trains.
	//
	// Deprecated: kept only because benchmark/ still sets it; it goes when
	// the benchmark is next revised.
	Prefetch int

	// Checkpoint wires the run to a versioned snapshot store: periodic
	// (optionally asynchronous) snapshots of weights + optimizer state +
	// progress cursors, and bit-exact resume from the newest one. The zero
	// value disables both.
	Checkpoint CheckpointConfig

	// Trace attaches the run to a phase tracer: every worker records
	// Ingest/Fwd/Bwd/CommWait/OptApply/CkptStage spans on its own lane
	// (sync ranks "w<r>", hybrid and scheduled "g<g>.w<r>"), exportable
	// as a Chrome trace timeline. nil — the default — records nothing and
	// costs one branch per span site; tracing never changes the trajectory.
	Trace *obs.Tracer
}

func (c Config) validate() {
	if c.Groups < 1 || c.WorkersPerGroup < 1 {
		panic(fmt.Sprintf("core: invalid groups=%d workers=%d", c.Groups, c.WorkersPerGroup))
	}
	if c.GroupBatch < 1 || c.GroupBatch%c.WorkersPerGroup != 0 {
		panic(fmt.Sprintf("core: group batch %d must divide evenly over %d workers", c.GroupBatch, c.WorkersPerGroup))
	}
	if c.Iterations < 1 {
		panic("core: iterations must be positive")
	}
	if c.Solver == nil {
		panic("core: solver required")
	}
	if _, err := comm.NewCodec(c.Codec, 0); err != nil {
		panic("core: " + err.Error())
	}
	c.Checkpoint.validate()
}

// IterStat records one completed group iteration.
type IterStat struct {
	Seq       int     // global completion order
	Group     int     // owning group
	Iter      int     // group-local iteration index
	Loss      float64 // mean loss over the group batch
	Staleness float64 // mean PS staleness across layers (0 for sync)
	Time      float64 // simulated completion time (TrainScheduled only)
}

// Result summarises a run.
type Result struct {
	Stats         []IterStat
	MeanStaleness float64
	FinalLoss     float64 // mean loss over the last completed round of groups
	// FinalWeights is the trained model: per trainable layer, per
	// parameter blob (the PS master for hybrid runs, the lockstep replica
	// state for sync runs). Install into a freshly built net's trainable
	// layers with InstallWeights for evaluation.
	FinalWeights [][][]float32
	// Wire accounts the parameter-server traffic a real interconnect would
	// have moved: codec-encoded gradients in, fp32 weights out. Zero for
	// sync runs (no PS involved).
	Wire ps.WireStats
	// Ingest accounts input staging across all replicas: total staging time
	// versus the part the compute loop actually waited on (exposed I/O).
	// The prefetcher collapses the wait toward zero while the staging work
	// stays put.
	Ingest data.IngestStats
	// Ckpt accounts the run's snapshots: staging time versus background
	// write time versus the stall the training loop actually saw — the
	// output-I/O mirror of Ingest. Zero when checkpointing is off.
	Ckpt ckpt.Stats
}

// PublishMetrics merges the run's accounts into a metrics registry: the
// wire, ingest and checkpoint adapters plus top-line training gauges
// ("train.iters", "train.final_loss", "train.mean_staleness"). One call
// per completed run; counts add across runs, gauges carry the latest.
// A nil registry is a no-op.
func (r Result) PublishMetrics(reg *obs.Registry) {
	r.Wire.Publish(reg)
	r.Ingest.Publish(reg)
	r.Ckpt.Publish(reg)
	reg.Counter("train.iters").Add(int64(len(r.Stats)))
	reg.Gauge("train.final_loss").Set(r.FinalLoss)
	reg.Gauge("train.mean_staleness").Set(r.MeanStaleness)
}

// ExtractWeights copies a layer set's current parameter values into the
// Result.FinalWeights wire format.
func ExtractWeights(layers []nn.Layer) [][][]float32 {
	out := make([][][]float32, len(layers))
	for i, l := range layers {
		for _, p := range l.Params() {
			out[i] = append(out[i], append([]float32(nil), p.W.Data...))
		}
	}
	return out
}

func finalize(stats []IterStat, groups int) Result {
	res := Result{Stats: stats}
	var staleSum float64
	for _, s := range stats {
		staleSum += s.Staleness
	}
	if len(stats) > 0 {
		res.MeanStaleness = staleSum / float64(len(stats))
		tail := groups
		if tail > len(stats) {
			tail = len(stats)
		}
		var lossSum float64
		for _, s := range stats[len(stats)-tail:] {
			lossSum += s.Loss
		}
		res.FinalLoss = lossSum / float64(tail)
	}
	return res
}

// InstallWeights copies a weight set (Result.FinalWeights, or a parameter
// server fetch) into a trainable-layer list — a replica's, or a freshly
// built net's for evaluation.
func InstallWeights(layers []nn.Layer, weights [][][]float32) {
	if len(weights) != len(layers) {
		panic("core: weight set count mismatch")
	}
	for i, l := range layers {
		params := l.Params()
		if len(weights[i]) != len(params) {
			panic("core: weight blob count mismatch")
		}
		for j, p := range params {
			copy(p.W.Data, weights[i][j])
		}
	}
}

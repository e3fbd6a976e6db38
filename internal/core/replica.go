package core

import (
	"time"

	"deep15pf/internal/data"
	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/tensor"
)

// Workload is the network-specific half of a training replica — the only
// part of the hybrid trainer the paper's two applications do not share
// (§III-E): the net, how a set of sample indices becomes a staged batch,
// and the forward/loss/backward over one. Everything else about turning
// indices into gradients (stage now or consume a prefetched slot, the slot
// ring, the ingest account, the trace lanes) is Replica's.
//
// Staging slots are numbered densely from 0 and owned by the workload.
// Slot 0 is ComputeGradients'; the prefetch ring uses 1 and 2.
type Workload interface {
	// TrainableLayers returns the parameterised layers in a fixed order
	// (the per-layer PS pairing).
	TrainableLayers() []nn.Layer
	// Reserve makes slot able to hold n samples, creating it on first use.
	// It is the only sizing verb: Stage is never asked to hold more than
	// the slot was reserved for, so Stage itself allocates nothing.
	Reserve(slot, n int)
	// Stage copies the samples idx (never empty) into slot. It runs on the
	// replica's goroutine (ComputeGradients) or on the prefetch goroutine,
	// never both at once, and must be a pure copy of dataset contents: the
	// same Stage on both paths is what keeps a trainer's prefetched
	// trajectory bitwise equal to the blocking reference.
	Stage(slot int, idx []int) error
	// Step runs forward, loss and backward over slot's staged batch,
	// accumulating *mean* gradients into the layer parameters, and returns
	// the mean loss. It records Fwd and Bwd spans on lane and calls
	// gradDone(t) the moment trainable layer t's gradients are final
	// (reverse topological order); both may be nil.
	Step(slot int, lane *obs.Lane, gradDone func(layer int)) float64
}

// Replica is one worker's complete training state: a Workload plus the one
// implementation of how its batches are staged. After the first iteration
// (which compiles the workload's plan) ComputeGradients runs with zero
// steady-state allocation; the trainers uphold the matching contract that
// shard sizes are fixed for a whole run.
type Replica struct {
	w      Workload
	layers []nn.Layer
	params []*nn.Param // cached: per-iteration ZeroGrads must not rebuild the slice

	pipe   *data.Pipeline[int] // non-nil once StartIngest staged a non-empty sequence
	ingest data.IngestStats    // blocking-path account (the pipeline keeps its own)

	// lane is this worker's trace lane; nil when untraced. Blocking
	// staging and pipeline waits record Ingest on it; the prefetch
	// goroutine records its staging on a "<lane>.ingest" sibling so the
	// timeline shows staging running beside compute.
	lane *obs.Lane
}

// NewReplica builds the replica around a science's workload.
func NewReplica(w Workload) *Replica {
	layers := w.TrainableLayers()
	return &Replica{w: w, layers: layers, params: flatParams(layers)}
}

// TrainableLayers returns the parameterised layers in PS pairing order.
func (r *Replica) TrainableLayers() []nn.Layer { return r.layers }

// ZeroGrad clears gradient accumulators.
func (r *Replica) ZeroGrad() { nn.ZeroGrads(r.params) }

// SetTraceLane attaches the worker's trace lane. Call before StartIngest.
func (r *Replica) SetTraceLane(l *obs.Lane) { r.lane = l }

// ComputeGradients is the blocking path — stage idx now, then compute —
// and the reference the trainers' prefetched path is held to.
func (r *Replica) ComputeGradients(idx []int) float64 {
	r.stageNow(idx)
	return r.w.Step(0, r.lane, nil)
}

// ComputeGradientsStream computes the next batch StartIngest staged, with
// per-layer completion callbacks: gradDone(t) fires on the computing
// goroutine the moment layer t's gradients are final, which is what lets
// the overlapped trainer exchange layer t while the backward pass is still
// running (§III-E).
func (r *Replica) ComputeGradientsStream(gradDone func(layer int)) float64 {
	return r.w.Step(r.nextStaged(), r.lane, gradDone)
}

// stageNow stages idx into the blocking slot on the calling goroutine and
// books every staging second as exposed wait.
func (r *Replica) stageNow(idx []int) {
	n := len(idx)
	r.w.Reserve(0, n)
	r.lane.Begin(obs.PhaseIngest)
	t0 := time.Now()
	if err := r.w.Stage(0, idx); err != nil {
		panic("core: batch staging failed: " + err.Error())
	}
	r.lane.End(obs.PhaseIngest)
	dt := time.Since(t0).Seconds()
	r.ingest.Batches++
	r.ingest.Samples += int64(n)
	r.ingest.StageSeconds += dt
	r.ingest.WaitSeconds += dt // blocking: staging sits on the critical path
}

// nextStaged takes the next prefetched slot. It panics if the pipeline is
// exhausted or staging failed: the trainers size the sequence to the run,
// so that is a bug or an I/O fault, never a steady state.
func (r *Replica) nextStaged() int {
	// The Next wait is the exposed part of ingest — near zero when the
	// prefetcher keeps up, the whole staging cost when it does not.
	r.lane.Begin(obs.PhaseIngest)
	slot, ok := r.pipe.Next()
	r.lane.End(obs.PhaseIngest)
	if !ok {
		if err := r.pipe.Err(); err != nil {
			panic("core: ingest pipeline: " + err.Error())
		}
		panic("core: ingest pipeline exhausted before training finished")
	}
	return slot
}

// StartIngest launches a background prefetcher over batches — the index
// sets of the run's iterations, in order — that double-buffers: one batch
// staged ahead of the one training, in a ring of two slots (the §VI-A
// input-pipeline overlap). Empty sets are skipped, never staged as a zero
// batch; the consumer must skip them symmetrically. The ring is sized for
// the largest set up front, so the prefetch goroutine never touches the
// workload's allocator.
func (r *Replica) StartIngest(batches [][]int) {
	maxN := 0
	for _, b := range batches {
		maxN = max(maxN, len(b))
	}
	if maxN == 0 {
		return // nothing will ever be staged (all shards empty)
	}
	slots := []int{1, 2}
	for _, slot := range slots {
		r.w.Reserve(slot, maxN)
	}
	// Iter tags on the stager's lane count staged batches (it runs one
	// ahead of the training iteration).
	ingLane := r.lane.Tracer().Lane(r.lane.Name() + ".ingest")
	staged := 0
	r.pipe = data.NewPipeline(slots, data.SliceSource(batches), func(slot int, idx []int) error {
		ingLane.SetIter(staged)
		staged++
		ingLane.Begin(obs.PhaseIngest)
		err := r.w.Stage(slot, idx)
		ingLane.End(obs.PhaseIngest)
		return err
	})
	r.pipe.Start()
}

// StopIngest terminates the prefetcher and waits for it; the ingest
// account stays readable. Idempotent, and a no-op if ingest never started.
func (r *Replica) StopIngest() {
	if r.pipe != nil {
		r.pipe.Stop()
	}
}

// IngestStats is the replica's input staging account over both paths: the
// blocking path books every staging second as exposed wait, the pipeline
// only the time the consumer actually sat blocked.
func (r *Replica) IngestStats() data.IngestStats {
	if r.pipe != nil {
		return r.ingest.Add(r.pipe.Stats())
	}
	return r.ingest
}

// batchSource is the one BatchSource: epoch-shuffled batches over n
// samples, re-batching if the trainer changes the size.
type batchSource struct {
	n   int
	rng *tensor.RNG
	b   *data.Batcher
}

// NewBatchSource returns an epoch-shuffled index stream over n samples.
func NewBatchSource(n int, seed uint64) BatchSource {
	return &batchSource{n: n, rng: tensor.NewRNG(seed)}
}

func (s *batchSource) Next(size int) []int {
	if s.b == nil || s.b.BatchSize != size {
		s.b = data.NewBatcher(s.n, size, s.rng)
	}
	return s.b.Next()
}

package hep

import (
	"time"

	"deep15pf/internal/core"
	"deep15pf/internal/data"
	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/tensor"
)

// TrainingProblem adapts the HEP classification task to the distributed
// trainer (core.Problem): replicas share one in-memory dataset and are
// initialised from a common seed so every worker starts bitwise identical.
//
// With Backing set, replicas read their image features from shard files
// instead of the in-memory tensor — the paper's HDF5-style input path, with
// honest per-batch file I/O. Shards round-trip float bits exactly, so a
// shard-backed run's trajectory equals the in-memory run's bit for bit.
type TrainingProblem struct {
	DS       *Dataset
	Model    ModelConfig
	InitSeed uint64

	// Backing, when non-nil, is the on-disk feature source: sample i's
	// image is read from the shard set at global index i (labels stay in
	// memory — they are a handful of ints). Safe to share across replicas;
	// reads are concurrent-safe.
	Backing *data.ShardSet

	// SampleWeights, when non-nil, weights each sample's loss contribution
	// (one entry per dataset sample) — the pseudo-labeling flywheel trains
	// on human labels at weight 1 and machine-generated labels at a
	// discount. Nil keeps the unweighted loss path, bit for bit.
	SampleWeights []float32
}

// NewTrainingProblem builds the adapter.
func NewTrainingProblem(ds *Dataset, model ModelConfig, initSeed uint64) *TrainingProblem {
	return &TrainingProblem{DS: ds, Model: model, InitSeed: initSeed}
}

// NewReplica implements core.Problem. The replica compiles one training
// plan per distinct batch size on first use (shard sizes are stable across
// a run, so in practice that is a single compile), after which every
// ComputeGradients iteration runs without touching the allocator.
func (p *TrainingProblem) NewReplica() core.Replica {
	net := BuildNet(p.Model, tensor.NewRNG(p.InitSeed))
	arena := tensor.NewArena()
	r := &replica{
		net:       net,
		ds:        p.DS,
		backing:   p.Backing,
		params:    net.Params(),
		arena:     arena,
		plans:     nn.NewPlanCache(net, true, arena),
		xStage:    tensor.NewStaging(arena, net.InShape...),
		gradStage: tensor.NewStaging(arena, p.Model.Classes),
		sampleW:   p.SampleWeights,
	}
	if r.backing != nil {
		r.ioScratch = make([]byte, r.backing.ScratchLen())
	}
	return r
}

// NewBatchSource implements core.Problem.
func (p *TrainingProblem) NewBatchSource(seed uint64) core.BatchSource {
	return &batchSource{n: p.DS.Images.Shape[0], rng: tensor.NewRNG(seed)}
}

type replica struct {
	net     *nn.Network
	ds      *Dataset
	backing *data.ShardSet
	params  []*nn.Param // cached: per-iteration ZeroGrads must not rebuild the slice
	arena   *tensor.Arena
	plans   *nn.PlanCache

	// Reusable per-iteration staging: the input batch, its labels and the
	// loss gradient. Grown to the largest batch seen, then stable.
	xStage, gradStage *tensor.Staging
	labels            []int

	// sampleW is the problem's per-sample loss weighting (nil =
	// unweighted); wbuf is its per-batch staging, grown like labels.
	sampleW []float32
	wbuf    []float32

	// Streaming ingest (core.PipelineReplica): slots are staged by the
	// pipeline's background goroutine while the previous batch trains.
	pipe   *data.Pipeline[*hepSlot]
	ingest data.IngestStats // blocking-path account (pipeline keeps its own)

	// ioScratch decodes shard reads without allocating. Exactly one stager
	// runs at a time per replica — the consumer goroutine (blocking path)
	// or the prefetch goroutine (pipeline path), with goroutine start/stop
	// ordering the handoff — so one buffer suffices.
	ioScratch []byte

	// lane is this worker's trace lane (core.TracedReplica); nil when
	// untraced. Blocking-path staging and pipe waits record Ingest on it,
	// the planned forward/backward record Fwd/Bwd. The prefetch goroutine
	// records its staging work on a "<lane>.ingest" sibling lane so the
	// timeline shows staging overlapping compute.
	lane *obs.Lane
}

// SetTraceLane implements core.TracedReplica.
func (r *replica) SetTraceLane(l *obs.Lane) { r.lane = l }

// hepSlot is one staged batch in the prefetch ring: an arena-backed image
// tensor plus its labels, pre-sized to the run's largest shard.
type hepSlot struct {
	stage   *tensor.Staging
	x       *tensor.Tensor // view for the staged batch size, set by the stager
	labels  []int
	weights []float32 // per-batch loss weights; nil when the problem is unweighted
	n       int
}

func (r *replica) TrainableLayers() []nn.Layer { return r.net.TrainableLayers() }
func (r *replica) ZeroGrad()                   { nn.ZeroGrads(r.params) }

// stageInto copies batch idx into caller-owned staging, from the shard
// backing when configured (real file reads) or the in-memory dataset. It is
// the single staging primitive both the blocking path and the pipeline's
// prefetch goroutine run, which is what makes the two paths bitwise equal.
func (r *replica) stageInto(x *tensor.Tensor, labels []int, weights []float32, idx []int) error {
	if weights != nil {
		for bi, i := range idx {
			weights[bi] = r.sampleW[i]
		}
	}
	if r.backing != nil {
		if err := r.backing.ReadBatchInto(idx, x.Data, nil, r.ioScratch); err != nil {
			return err
		}
		for bi, i := range idx {
			labels[bi] = r.ds.Labels[i]
		}
		return nil
	}
	r.ds.BatchInto(x, labels, idx)
	return nil
}

// batchWeights returns the per-batch weight staging sized n, or nil for an
// unweighted problem.
func (r *replica) batchWeights(n int) []float32 {
	if r.sampleW == nil {
		return nil
	}
	if cap(r.wbuf) < n {
		r.wbuf = make([]float32, n)
	}
	return r.wbuf[:n]
}

func (r *replica) ComputeGradients(idx []int) float64 {
	return r.ComputeGradientsStream(idx, nil)
}

// ComputeGradientsStream implements core.StreamReplica: the compiled plan's
// backward pass notifies gradDone as each trainable layer's gradients become
// final, letting the overlapped trainer exchange them mid-backward. This is
// the blocking ingest path — stage now, then compute — and it books every
// staging second as exposed wait time in the replica's ingest account.
func (r *replica) ComputeGradientsStream(idx []int, gradDone func(layer int)) float64 {
	n := len(idx)
	x := r.xStage.Batch(n)
	if cap(r.labels) < n {
		r.labels = make([]int, n)
	}
	labels := r.labels[:n]
	weights := r.batchWeights(n)
	r.lane.Begin(obs.PhaseIngest)
	t0 := time.Now()
	if err := r.stageInto(x, labels, weights, idx); err != nil {
		panic("hep: batch staging failed: " + err.Error())
	}
	r.lane.End(obs.PhaseIngest)
	dt := time.Since(t0).Seconds()
	r.ingest.Batches++
	r.ingest.Samples += int64(n)
	r.ingest.StageSeconds += dt
	r.ingest.WaitSeconds += dt // blocking: staging sits on the critical path
	return r.computeOn(x, labels, weights, gradDone)
}

// computeOn is the shared forward/loss/backward over an already-staged
// batch. A nil weights slice runs the unweighted loss, bit for bit.
func (r *replica) computeOn(x *tensor.Tensor, labels []int, weights []float32, gradDone func(layer int)) float64 {
	n := x.Shape[0]
	grad := r.gradStage.Batch(n)
	plan := r.plans.Plan(n)
	r.lane.Begin(obs.PhaseFwd)
	logits := plan.Forward(x)
	loss := nn.SoftmaxCrossEntropyWeightedInto(logits, labels, weights, grad)
	r.lane.End(obs.PhaseFwd)
	r.lane.Begin(obs.PhaseBwd)
	plan.BackwardParams(grad, gradDone)
	r.lane.End(obs.PhaseBwd)
	return loss
}

// StartIngest implements core.PipelineReplica: it sizes a slot ring for the
// largest shard in the sequence (so staging never touches the arena again)
// and launches the background prefetcher over the same index order the
// blocking path would consume.
func (r *replica) StartIngest(batches [][]int, lookahead int) {
	if lookahead < 1 {
		lookahead = 1
	}
	maxN := 0
	for _, b := range batches {
		if len(b) > maxN {
			maxN = len(b)
		}
	}
	if maxN == 0 {
		r.pipe = nil
		return // nothing will ever be staged (all shards empty)
	}
	slots := make([]*hepSlot, lookahead+1)
	for i := range slots {
		st := tensor.NewStaging(r.arena, r.net.InShape...)
		st.Batch(maxN) // pre-size: all later Batch(n≤maxN) calls are realloc-free
		slots[i] = &hepSlot{stage: st, labels: make([]int, maxN)}
		if r.sampleW != nil {
			slots[i].weights = make([]float32, maxN)
		}
	}
	// The prefetcher gets its own lane: staging spans land beside the
	// worker's compute spans in the timeline, making prefetch hiding
	// directly visible. Iter tags count staged batches (the stager runs
	// ahead of the training iteration by up to the lookahead).
	ingLane := r.lane.Tracer().Lane(r.lane.Name() + ".ingest")
	staged := 0
	r.pipe = data.NewPipeline(slots, data.SliceSource(batches),
		func(dst *hepSlot, idx []int) error {
			ingLane.SetIter(staged)
			staged++
			ingLane.Begin(obs.PhaseIngest)
			dst.n = len(idx)
			dst.x = dst.stage.Batch(dst.n)
			var w []float32
			if dst.weights != nil {
				w = dst.weights[:dst.n]
			}
			err := r.stageInto(dst.x, dst.labels[:dst.n], w, idx)
			ingLane.End(obs.PhaseIngest)
			return err
		})
	r.pipe.Start()
}

// ComputeStagedStream implements core.PipelineReplica: the batch was staged
// in the background; consume it and run the planned forward/backward.
func (r *replica) ComputeStagedStream(gradDone func(layer int)) float64 {
	// The Next wait is the exposed part of ingest — near zero when the
	// prefetcher keeps up, the whole staging cost when it does not.
	r.lane.Begin(obs.PhaseIngest)
	slot, ok := r.pipe.Next()
	r.lane.End(obs.PhaseIngest)
	if !ok {
		if err := r.pipe.Err(); err != nil {
			panic("hep: ingest pipeline: " + err.Error())
		}
		panic("hep: ingest pipeline exhausted before training finished")
	}
	var w []float32
	if slot.weights != nil {
		w = slot.weights[:slot.n]
	}
	return r.computeOn(slot.x, slot.labels[:slot.n], w, gradDone)
}

// StopIngest implements core.PipelineReplica.
func (r *replica) StopIngest() {
	if r.pipe != nil {
		r.pipe.Stop()
	}
}

// IngestStats implements core.IngestReporter over whichever path ran.
func (r *replica) IngestStats() data.IngestStats {
	if r.pipe != nil {
		return r.ingest.Add(r.pipe.Stats())
	}
	return r.ingest
}

// Scores runs inference over the whole dataset and returns P(signal).
func (r *replica) Scores(batch int) []float64 {
	n := r.ds.Images.Shape[0]
	out := make([]float64, 0, n)
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x, _ := r.ds.Batch(idx)
		out = append(out, SignalScore(r.net.Forward(x, false))...)
	}
	return out
}

// ScoreDataset evaluates a trained replica (from core training) on a
// dataset, returning P(signal) per sample. rep must come from
// NewReplica().
func ScoreDataset(rep core.Replica, ds *Dataset, batch int) []float64 {
	hr, ok := rep.(*replica)
	if !ok {
		panic("hep: replica was not created by this problem")
	}
	eval := &replica{net: hr.net, ds: ds}
	return eval.Scores(batch)
}

// ReplicaParams exposes a replica's parameter blobs so a trained model can
// be checkpointed with nn.SaveFile (and later served through
// internal/serve). rep must come from NewReplica().
func ReplicaParams(rep core.Replica) []*nn.Param {
	hr, ok := rep.(*replica)
	if !ok {
		panic("hep: replica was not created by this problem")
	}
	return hr.net.Params()
}

type batchSource struct {
	n   int
	rng *tensor.RNG
	b   *data.Batcher
}

func (s *batchSource) Next(size int) []int {
	if s.b == nil || s.b.BatchSize != size {
		s.b = data.NewBatcher(s.n, size, s.rng)
	}
	return s.b.Next()
}

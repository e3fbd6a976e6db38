package astro

import (
	"fmt"
	"time"

	"deep15pf/internal/core"
	"deep15pf/internal/data"
	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/tensor"
)

// TrainingProblem adapts the astronomy classification task to the
// distributed trainer (core.Problem), mirroring the HEP adapter: replicas
// share one in-memory dataset, are initialised from a common seed so every
// worker starts bitwise identical, and optionally read features from shard
// files.
//
// The transfer-learning fields are what make this the third-science
// workload rather than a third copy of hep: InitFrom maps a donor
// checkpoint's blobs into every replica by name and shape before training,
// and FreezeNames freezes the mapped backbone (nn.Network.Freeze), so the
// trainer's solvers, gradient exchange and checkpoints all see only the
// head. Because every replica applies the identical mapping and freeze, the
// fine-tune trajectory stays bitwise-reproducible under the golden
// machinery.
type TrainingProblem struct {
	DS       *Dataset
	Model    ModelConfig
	InitSeed uint64

	// Backing, when non-nil, is the on-disk feature source: sample i's
	// image is read from the shard set at global index i.
	Backing *data.ShardSet

	// SampleWeights, when non-nil, weights each sample's loss contribution
	// (one entry per dataset sample). Nil keeps the unweighted loss path.
	SampleWeights []float32

	// InitFrom, when non-nil, holds donor checkpoint blobs mapped into
	// every replica by name and shape (nn.MapWeights with AllowExtra for
	// the fresh astro head and AllowUnused for the donor's discarded
	// head). Use NewTransferProblem to validate the mapping once up front.
	InitFrom []nn.WeightBlob

	// FreezeNames lists layers frozen after the donor weights land —
	// typically BackboneLayerNames(units). Empty trains everything.
	FreezeNames []string
}

// NewTrainingProblem builds a from-scratch adapter.
func NewTrainingProblem(ds *Dataset, model ModelConfig, initSeed uint64) *TrainingProblem {
	return &TrainingProblem{DS: ds, Model: model, InitSeed: initSeed}
}

// NewTransferProblem builds a fine-tune adapter: donor blobs are mapped
// into the backbone and freeze lists the frozen layers. The mapping is
// validated against a probe network immediately so an incompatible donor
// fails here, with the mapping report, rather than inside worker spawn.
func NewTransferProblem(ds *Dataset, model ModelConfig, initSeed uint64, donor []nn.WeightBlob, freeze []string) (*TrainingProblem, nn.MapResult, error) {
	p := &TrainingProblem{DS: ds, Model: model, InitSeed: initSeed, InitFrom: donor, FreezeNames: freeze}
	probe := BuildNet(model, tensor.NewRNG(initSeed))
	res, err := nn.MapWeights(probe.Params(), donor, nn.MapOptions{AllowExtra: true, AllowUnused: true})
	if err != nil {
		return nil, res, fmt.Errorf("astro: donor checkpoint does not map into %s: %w", model.Name, err)
	}
	if len(res.Mapped) == 0 {
		return nil, res, fmt.Errorf("astro: donor checkpoint shares no layer with %s", model.Name)
	}
	probe.Freeze(freeze...) // panics on unknown/non-prefix names, same as replicas would
	return p, res, nil
}

// NewReplica implements core.Problem. Fine-tune replicas map the donor
// blobs and freeze the backbone before compiling plans, so the plan cache
// compiles the frozen prefix on the eval datapath from the start.
func (p *TrainingProblem) NewReplica() core.Replica {
	net := BuildNet(p.Model, tensor.NewRNG(p.InitSeed))
	if len(p.InitFrom) > 0 {
		if _, err := nn.MapWeights(net.Params(), p.InitFrom, nn.MapOptions{AllowExtra: true, AllowUnused: true}); err != nil {
			panic("astro: donor mapping failed (validate with NewTransferProblem): " + err.Error())
		}
	}
	if len(p.FreezeNames) > 0 {
		net.Freeze(p.FreezeNames...)
	}
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

	// Reusable per-iteration staging, grown to the largest batch seen.
	xStage, gradStage *tensor.Staging
	labels            []int

	sampleW []float32
	wbuf    []float32

	// Streaming ingest (core.PipelineReplica).
	pipe   *data.Pipeline[*astroSlot]
	ingest data.IngestStats

	ioScratch []byte

	lane *obs.Lane
}

// SetTraceLane implements core.TracedReplica.
func (r *replica) SetTraceLane(l *obs.Lane) { r.lane = l }

// astroSlot is one staged batch in the prefetch ring.
type astroSlot struct {
	stage   *tensor.Staging
	x       *tensor.Tensor
	labels  []int
	weights []float32
	n       int
}

func (r *replica) TrainableLayers() []nn.Layer { return r.net.TrainableLayers() }
func (r *replica) ZeroGrad()                   { nn.ZeroGrads(r.params) }

// stageInto copies batch idx into caller-owned staging, from the shard
// backing when configured or the in-memory dataset — the single staging
// primitive both ingest paths share, keeping them bitwise equal.
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

// ComputeGradientsStream implements core.StreamReplica: the blocking ingest
// path — stage now, then compute — with per-layer gradient streaming. On a
// frozen replica the stream only ever fires for head layers; the backbone
// is invisible to the exchange tier.
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
		panic("astro: batch staging failed: " + err.Error())
	}
	r.lane.End(obs.PhaseIngest)
	dt := time.Since(t0).Seconds()
	r.ingest.Batches++
	r.ingest.Samples += int64(n)
	r.ingest.StageSeconds += dt
	r.ingest.WaitSeconds += dt
	return r.computeOn(x, labels, weights, gradDone)
}

// computeOn is the shared forward/loss/backward over an already-staged
// batch.
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

// StartIngest implements core.PipelineReplica.
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
		return
	}
	slots := make([]*astroSlot, lookahead+1)
	for i := range slots {
		st := tensor.NewStaging(r.arena, r.net.InShape...)
		st.Batch(maxN)
		slots[i] = &astroSlot{stage: st, labels: make([]int, maxN)}
		if r.sampleW != nil {
			slots[i].weights = make([]float32, maxN)
		}
	}
	ingLane := r.lane.Tracer().Lane(r.lane.Name() + ".ingest")
	staged := 0
	r.pipe = data.NewPipeline(slots, data.SliceSource(batches),
		func(dst *astroSlot, idx []int) error {
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

// ComputeStagedStream implements core.PipelineReplica.
func (r *replica) ComputeStagedStream(gradDone func(layer int)) float64 {
	r.lane.Begin(obs.PhaseIngest)
	slot, ok := r.pipe.Next()
	r.lane.End(obs.PhaseIngest)
	if !ok {
		if err := r.pipe.Err(); err != nil {
			panic("astro: ingest pipeline: " + err.Error())
		}
		panic("astro: ingest pipeline exhausted before training finished")
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

// IngestStats implements core.IngestReporter.
func (r *replica) IngestStats() data.IngestStats {
	if r.pipe != nil {
		return r.ingest.Add(r.pipe.Stats())
	}
	return r.ingest
}

// PredictDataset evaluates a trained replica on a dataset, returning the
// argmax class per sample. rep must come from NewReplica().
func PredictDataset(rep core.Replica, ds *Dataset, batch int) []int {
	ar, ok := rep.(*replica)
	if !ok {
		panic("astro: replica was not created by this problem")
	}
	n := ds.Images.Shape[0]
	out := make([]int, 0, n)
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x, _ := ds.Batch(idx)
		out = append(out, Predict(ar.net.Forward(x, false))...)
	}
	return out
}

// EvalAccuracy evaluates a trained replica's accuracy on a dataset.
func EvalAccuracy(rep core.Replica, ds *Dataset, batch int) float64 {
	return Accuracy(PredictDataset(rep, ds, batch), ds.Labels)
}

// ReplicaParams exposes a replica's full parameter blobs (frozen backbone
// included) so a fine-tuned model can be checkpointed whole with
// nn.SaveFile and served through internal/serve. rep must come from
// NewReplica().
func ReplicaParams(rep core.Replica) []*nn.Param {
	ar, ok := rep.(*replica)
	if !ok {
		panic("astro: replica was not created by this problem")
	}
	return ar.net.Params()
}

// ReplicaNet exposes the replica's network (e.g. for fingerprinting the
// full fine-tuned model).
func ReplicaNet(rep core.Replica) *nn.Network {
	ar, ok := rep.(*replica)
	if !ok {
		panic("astro: replica was not created by this problem")
	}
	return ar.net
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

package climate

import (
	"deep15pf/internal/core"
	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/tensor"
)

// TrainingProblem adapts the semi-supervised climate task to the
// distributed trainer. LabeledFrac controls the semi-supervised split:
// sample i is treated as labeled iff i < LabeledFrac·len(dataset), so
// unlabeled samples contribute only the reconstruction term — the paper's
// mechanism for exploiting data "that might have few/no labeled examples".
type TrainingProblem struct {
	DS          *Dataset
	Model       ModelConfig
	Weights     LossWeights
	LabeledFrac float64
	InitSeed    uint64
}

// NewTrainingProblem builds the adapter with fully labeled data.
func NewTrainingProblem(ds *Dataset, model ModelConfig, initSeed uint64) *TrainingProblem {
	return &TrainingProblem{
		DS: ds, Model: model, Weights: DefaultLossWeights(),
		LabeledFrac: 1.0, InitSeed: initSeed,
	}
}

// NewReplica implements core.Problem: core's replica over the climate
// workload below.
func (p *TrainingProblem) NewReplica() *core.Replica {
	return core.NewReplica(&workload{
		net: BuildNet(p.Model, tensor.NewRNG(p.InitSeed)), ds: p.DS, weights: p.Weights,
		labeledN: int(p.LabeledFrac * float64(len(p.DS.Samples))),
		arena:    tensor.NewArena(),
		plans:    make(map[int]*TrainPlan),
	})
}

// NumSamples is the training set's size: one epoch of the batch source.
func (p *TrainingProblem) NumSamples() int { return len(p.DS.Samples) }

// NewBatchSource implements core.Problem.
func (p *TrainingProblem) NewBatchSource(seed uint64) core.BatchSource {
	return core.NewBatchSource(p.NumSamples(), seed)
}

// TrainedNet materialises a trained model for evaluation or serving: the
// problem's net with weights — a core.Result.FinalWeights, or
// core.ExtractWeights of a replica's layers — installed.
func (p *TrainingProblem) TrainedNet(weights [][][]float32) *Net {
	net := BuildNet(p.Model, tensor.NewRNG(p.InitSeed))
	core.InstallWeights(net.TrainableLayers(), weights)
	return net
}

// workload is the climate core.Workload: the branching semi-supervised net
// stepped through a composed TrainPlan (one per distinct batch size, in
// practice a single compile), over staged tuples of fields, box targets and
// labeled flags.
type workload struct {
	net      *Net
	ds       *Dataset
	weights  LossWeights
	labeledN int
	arena    *tensor.Arena
	plans    map[int]*TrainPlan
	slots    []*slot
}

// slot is one staged batch: the 16-channel field tensor plus per-sample box
// targets and semi-supervised labeled flags — everything the composed
// TrainPlan consumes.
type slot struct {
	stage   *tensor.Staging
	x       *tensor.Tensor // view for the staged batch size, set by Stage
	boxes   [][]Box
	labeled []bool
}

func (w *workload) TrainableLayers() []nn.Layer { return w.net.TrainableLayers() }

func (w *workload) Reserve(i, n int) {
	for len(w.slots) <= i {
		w.slots = append(w.slots, &slot{stage: tensor.NewStaging(w.arena, NumChannels, w.ds.Size, w.ds.Size)})
	}
	s := w.slots[i]
	s.stage.Batch(n)
	if cap(s.boxes) < n {
		s.boxes = make([][]Box, n)
		s.labeled = make([]bool, n)
	}
}

// Stage copies fields, box lists (shared, not copied) and labeled flags.
func (w *workload) Stage(i int, idx []int) error {
	s := w.slots[i]
	n := len(idx)
	s.x, s.boxes, s.labeled = s.stage.Batch(n), s.boxes[:n], s.labeled[:n]
	w.ds.BatchInto(s.x, s.boxes, idx)
	for bi, sample := range idx {
		s.labeled[bi] = sample < w.labeledN
	}
	return nil
}

// Step runs the planned step; per-layer completion fires across the
// encoder, heads and decoder in TrainPlan.StepStream's documented order.
// Fwd/Bwd spans are recorded inside the TrainPlan (the only place the
// branching step's two halves are separable).
func (w *workload) Step(i int, lane *obs.Lane, gradDone func(layer int)) float64 {
	s := w.slots[i]
	n := s.x.Shape[0]
	tp := w.plans[n]
	if tp == nil {
		tp = w.net.NewTrainPlan(n, w.arena)
		w.plans[n] = tp
	}
	tp.SetTraceLane(lane)
	return tp.StepStream(s.x, s.boxes, s.labeled, w.weights, gradDone).Total()
}

package hep

import (
	"deep15pf/internal/core"
	"deep15pf/internal/data"
	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

// TrainingProblem adapts the HEP classification task to the distributed
// trainer (core.Problem): replicas share one in-memory dataset and are
// initialised from a common seed so every worker starts bitwise identical.
// The replica itself is core's, over the classification workload hep
// shares with astro; what is HEP's own is the net and the evaluation.
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

// NewReplica implements core.Problem.
func (p *TrainingProblem) NewReplica() *core.Replica {
	net := BuildNet(p.Model, tensor.NewRNG(p.InitSeed))
	return core.NewReplica(core.NewClassifier(net, p.DS.Images, p.DS.Labels, p.Backing, p.SampleWeights))
}

// NumSamples is the training set's size: one epoch of the batch source.
func (p *TrainingProblem) NumSamples() int { return p.DS.Images.Shape[0] }

// NewBatchSource implements core.Problem.
func (p *TrainingProblem) NewBatchSource(seed uint64) core.BatchSource {
	return core.NewBatchSource(p.NumSamples(), seed)
}

// TrainedNet materialises a trained model for evaluation, checkpointing
// (nn.SaveFile over its Params) or serving: the problem's net with weights
// — a core.Result.FinalWeights, or core.ExtractWeights of a replica's
// layers — installed.
func (p *TrainingProblem) TrainedNet(weights [][][]float32) *nn.Network {
	net := BuildNet(p.Model, tensor.NewRNG(p.InitSeed))
	core.InstallWeights(net.TrainableLayers(), weights)
	return net
}

// ScoreDataset runs inference over a whole dataset and returns P(signal)
// per sample.
func ScoreDataset(net *nn.Network, ds *Dataset, batch int) []float64 {
	n := ds.Images.Shape[0]
	out := make([]float64, 0, n)
	plan := nn.Compile(net, batch, false, nil)
	idx := make([]int, 0, batch)
	for lo := 0; lo < n; lo += batch {
		idx = idx[:0]
		for i := lo; i < min(lo+batch, n); i++ {
			idx = append(idx, i)
		}
		x, _ := ds.Batch(idx)
		out = append(out, SignalScore(plan.Forward(x))...)
	}
	return out
}

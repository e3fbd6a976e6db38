package astro

import (
	"fmt"

	"deep15pf/internal/core"
	"deep15pf/internal/data"
	"deep15pf/internal/nn"
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

// buildNet constructs the problem's net the way every replica and every
// evaluation copy must see it: seeded init, then the donor blobs mapped in,
// then the backbone frozen — before any plan compiles, so plan caches
// compile the frozen prefix on the eval datapath from the start.
func (p *TrainingProblem) buildNet() *nn.Network {
	net := BuildNet(p.Model, tensor.NewRNG(p.InitSeed))
	if len(p.InitFrom) > 0 {
		if _, err := nn.MapWeights(net.Params(), p.InitFrom, nn.MapOptions{AllowExtra: true, AllowUnused: true}); err != nil {
			panic("astro: donor mapping failed (validate with NewTransferProblem): " + err.Error())
		}
	}
	net.Freeze(p.FreezeNames...)
	return net
}

// NewReplica implements core.Problem over the classification workload
// shared with hep. On a frozen replica gradient streaming only ever fires
// for head layers; the backbone is invisible to the exchange tier.
func (p *TrainingProblem) NewReplica() *core.Replica {
	return core.NewReplica(core.NewClassifier(p.buildNet(), p.DS.Images, p.DS.Labels, p.Backing, p.SampleWeights))
}

// NumSamples is the training set's size: one epoch of the batch source.
func (p *TrainingProblem) NumSamples() int { return p.DS.Images.Shape[0] }

// NewBatchSource implements core.Problem.
func (p *TrainingProblem) NewBatchSource(seed uint64) core.BatchSource {
	return core.NewBatchSource(p.NumSamples(), seed)
}

// TrainedNet materialises a trained model — frozen backbone included, so
// nn.SaveFile over its Params checkpoints the fine-tuned model whole: the
// problem's net with weights (a core.Result.FinalWeights, which covers the
// trainable layers only) installed over it.
func (p *TrainingProblem) TrainedNet(weights [][][]float32) *nn.Network {
	net := p.buildNet()
	core.InstallWeights(net.TrainableLayers(), weights)
	return net
}

// PredictDataset runs inference over a whole dataset and returns the
// argmax class per sample.
func PredictDataset(net *nn.Network, ds *Dataset, batch int) []int {
	n := ds.Images.Shape[0]
	out := make([]int, 0, n)
	plan := nn.Compile(net, batch, false, nil)
	idx := make([]int, 0, batch)
	for lo := 0; lo < n; lo += batch {
		idx = idx[:0]
		for i := lo; i < min(lo+batch, n); i++ {
			idx = append(idx, i)
		}
		x, _ := ds.Batch(idx)
		out = append(out, Predict(plan.Forward(x))...)
	}
	return out
}

// EvalAccuracy evaluates a trained net's accuracy on a dataset.
func EvalAccuracy(net *nn.Network, ds *Dataset, batch int) float64 {
	return Accuracy(PredictDataset(net, ds, batch), ds.Labels)
}

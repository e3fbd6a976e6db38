package core

import (
	"deep15pf/internal/data"
	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/tensor"
)

// Classifier is the Workload of the image-classification sciences (hep,
// astro): [N, C, H, W] images → class logits → (optionally per-sample
// weighted) softmax cross-entropy, through one compiled training plan per
// distinct batch size. A science supplies only what differs — the net it
// built (and, for transfer learning, mapped and froze) and the dataset.
type Classifier struct {
	net    *nn.Network
	images *tensor.Tensor
	labels []int

	// backing, when non-nil, is the on-disk feature source: sample i's
	// image is read from the shard set at global index i (labels stay in
	// memory — they are a handful of ints). Shards round-trip float bits
	// exactly, so a shard-backed trajectory equals the in-memory one.
	backing *data.ShardSet

	// sampleW, when non-nil, weights each sample's loss contribution (one
	// entry per dataset sample); nil keeps the unweighted loss, bit for bit.
	sampleW []float32

	arena     *tensor.Arena
	plans     *nn.PlanCache
	gradStage *tensor.Staging
	slots     []*classSlot
}

// classSlot is one staged batch: an arena-backed image tensor, its labels
// and (for a weighted problem) its per-sample loss weights.
type classSlot struct {
	stage   *tensor.Staging
	x       *tensor.Tensor // view for the staged batch size, set by Stage
	labels  []int
	weights []float32
}

// NewClassifier builds the workload over net and an in-memory dataset
// (images [N, C, H, W], one label per image). backing and sampleWeights
// are optional (nil = read images from memory, unweighted loss).
func NewClassifier(net *nn.Network, images *tensor.Tensor, labels []int, backing *data.ShardSet, sampleWeights []float32) *Classifier {
	arena := tensor.NewArena()
	c := &Classifier{
		net: net, images: images, labels: labels,
		backing: backing, sampleW: sampleWeights,
		arena:     arena,
		plans:     nn.NewPlanCache(net, true, arena),
		gradStage: tensor.NewStaging(arena, net.OutShape()...),
	}
	return c
}

func (c *Classifier) TrainableLayers() []nn.Layer { return c.net.TrainableLayers() }

func (c *Classifier) Reserve(slot, n int) {
	for len(c.slots) <= slot {
		c.slots = append(c.slots, &classSlot{stage: tensor.NewStaging(c.arena, c.net.InShape...)})
	}
	s := c.slots[slot]
	s.stage.Batch(n) // grows, through the arena, only past the largest batch seen
	if cap(s.labels) < n {
		s.labels = make([]int, n)
		if c.sampleW != nil {
			s.weights = make([]float32, n)
		}
	}
}

func (c *Classifier) Stage(slot int, idx []int) error {
	s := c.slots[slot]
	n := len(idx)
	s.x = s.stage.Batch(n)
	s.labels = s.labels[:n]
	for bi, i := range idx {
		s.labels[bi] = c.labels[i]
	}
	if c.sampleW != nil {
		s.weights = s.weights[:n]
		for bi, i := range idx {
			s.weights[bi] = c.sampleW[i]
		}
	}
	if c.backing != nil {
		return c.backing.ReadBatchInto(idx, s.x.Data, nil, nil)
	}
	per := s.x.Len() / n
	for bi, i := range idx {
		copy(s.x.Data[bi*per:(bi+1)*per], c.images.Data[i*per:(i+1)*per])
	}
	return nil
}

func (c *Classifier) Step(slot int, lane *obs.Lane, gradDone func(layer int)) float64 {
	s := c.slots[slot]
	n := s.x.Shape[0]
	grad := c.gradStage.Batch(n)
	plan := c.plans.Plan(n)
	lane.Begin(obs.PhaseFwd)
	logits := plan.Forward(s.x)
	loss := nn.SoftmaxCrossEntropyWeightedInto(logits, s.labels, s.weights, grad)
	lane.End(obs.PhaseFwd)
	lane.Begin(obs.PhaseBwd)
	plan.BackwardParams(grad, gradDone)
	lane.End(obs.PhaseBwd)
	return loss
}

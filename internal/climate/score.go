package climate

import (
	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

// Scorer is the compiled forward-only schedule: the shared encoder and the
// three score heads, each a per-batch-size inference plan cache, over one
// arena. The decoder exists to regularise training and never runs here. It
// is TrainPlan's counterpart for scoring — between the two the branch
// topology is written once per direction — and what Detect, the served
// replica and the examples run. Like its plans a Scorer is
// single-goroutine, reads the net's current weights on every call, and
// owns its outputs, which stay valid until the next call.
type Scorer struct {
	enc, conf, class, box *nn.PlanCache
}

// headNet wraps one score head as a one-layer network over the shared
// feature grid, the unit nn compiles. The wrapper owns no parameters — it
// reuses the head conv itself, whose execution state lives in the plan.
func (n *Net) headNet(name string, l nn.Layer) *nn.Network {
	return nn.NewNetwork(n.Cfg.Name+"-"+name+"-plan", n.featShape...).Add(l)
}

// NewScorer builds the forward-only schedule; plans compile on first use
// of each batch-size bucket.
func (n *Net) NewScorer() *Scorer {
	enc := nn.NewPlanCache(n.Encoder, false, nil)
	head := func(name string, l nn.Layer) *nn.PlanCache {
		return nn.NewPlanCache(n.headNet(name, l), false, enc.Arena())
	}
	return &Scorer{enc: enc, conf: head("conf", n.ConfHead), class: head("class", n.ClassHead), box: head("box", n.BoxHead)}
}

// Forward runs the encoder once and all heads on its output.
func (s *Scorer) Forward(x *tensor.Tensor) Output {
	feat := s.enc.Forward(x)
	return Output{
		Feat:  feat,
		Conf:  s.conf.Forward(feat),
		Class: s.class.Forward(feat),
		BoxP:  s.box.Forward(feat),
	}
}

// Detect runs inference and returns per-sample detections after NMS, using
// the paper's confidence threshold (0.8) by default.
func (n *Net) Detect(x *tensor.Tensor, confThresh, nmsIoU float64) [][]Detection {
	out := n.NewScorer().Forward(x)
	batch := x.Shape[0]
	dets := make([][]Detection, batch)
	for s := 0; s < batch; s++ {
		dets[s] = NMS(n.Decode(out, s, confThresh), nmsIoU)
	}
	return dets
}

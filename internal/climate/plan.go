package climate

import (
	"fmt"

	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/tensor"
)

// TrainPlan is the compiled training schedule for the semi-supervised
// network at a fixed batch size: one training plan for the shared encoder,
// one single-layer plan per score head, one for the decoder, plus the
// feature-gradient accumulator, the head/reconstruction gradient tensors
// and the loss workspace — all allocated from one arena at build time.
// Step then performs a full forward/loss/backward iteration with zero
// steady-state allocation.
//
// The branching topology (encoder fan-out to three heads and the decoder,
// gradients fanned back in) is exactly the structure nn.Plan's sequential
// schedule cannot express, so this type composes plans; it is the one
// place the training topology is written (Scorer is the forward-only one).
// Like its parts, a TrainPlan is single-goroutine.
type TrainPlan struct {
	net   *Net
	batch int
	arena *tensor.Arena

	enc, conf, class, box *nn.Plan
	dec                   *nn.Plan // nil without decoder

	dfeat *tensor.Tensor
	grads Grads
	sc    lossScratch

	// Per-layer completion plumbing for StepStream: the callbacks are built
	// once (they capture tp, not the per-call gradDone) so streaming adds no
	// per-iteration allocation. encN is the encoder's trainable-layer count;
	// global trainable indices are encoder 0..encN-1, heads encN..encN+2,
	// decoder encN+3.. — Net.TrainableLayers order.
	gradDone               func(layer int)
	encN, decN             int
	notifyEnc, notifyDec   func(t int)
	notifyConf             func(t int)
	notifyClass, notifyBox func(t int)

	// lane records Fwd (encoder through loss) and Bwd (gradient fan-in)
	// spans; nil = untraced. The split lives here because the branching
	// step is one opaque call from the replica's point of view.
	lane *obs.Lane
}

// SetTraceLane attaches a trace lane to the plan's step.
func (tp *TrainPlan) SetTraceLane(l *obs.Lane) { tp.lane = l }

// NewTrainPlan compiles a training plan for batches of exactly batch
// samples. arena == nil creates a private arena; replicas with several
// batch sizes pass a shared one so plans recycle slabs.
func (n *Net) NewTrainPlan(batch int, arena *tensor.Arena) *TrainPlan {
	if batch < 1 {
		panic("climate: train plan batch must be positive")
	}
	if arena == nil {
		arena = tensor.NewArena()
	}
	tp := &TrainPlan{net: n, batch: batch, arena: arena}
	tp.enc = nn.Compile(n.Encoder, batch, true, arena)
	tp.conf = nn.Compile(n.headNet("conf", n.ConfHead), batch, true, arena)
	tp.class = nn.Compile(n.headNet("class", n.ClassHead), batch, true, arena)
	tp.box = nn.Compile(n.headNet("box", n.BoxHead), batch, true, arena)
	if n.Decoder != nil {
		tp.dec = nn.Compile(n.Decoder, batch, true, arena)
	}
	tp.dfeat = arena.GetTensor(append([]int{batch}, n.featShape...)...)
	g := n.GridSize
	tp.grads = Grads{
		Conf:  arena.GetTensor(batch, 1, g, g),
		Class: arena.GetTensor(batch, int(NumClasses), g, g),
		BoxP:  arena.GetTensor(batch, 4, g, g),
	}
	if n.Decoder != nil {
		tp.grads.Recon = arena.GetTensor(batch, NumChannels, n.Cfg.Size, n.Cfg.Size)
	}
	tp.encN = len(n.Encoder.TrainableLayers())
	if n.Decoder != nil {
		tp.decN = len(n.Decoder.TrainableLayers())
	}
	notify := func(off int) func(int) {
		return func(t int) {
			if tp.gradDone != nil {
				tp.gradDone(off + t)
			}
		}
	}
	tp.notifyEnc = notify(0)
	tp.notifyConf = notify(tp.encN)
	tp.notifyClass = notify(tp.encN + 1)
	tp.notifyBox = notify(tp.encN + 2)
	tp.notifyDec = notify(tp.encN + 3)
	return tp
}

// Batch returns the plan's fixed batch size.
func (tp *TrainPlan) Batch() int { return tp.batch }

// Step runs one full forward/loss/backward iteration: encoder and decoder
// through their compiled plans, heads through theirs, the loss through the
// workspace form, and the backward fan-in in a fixed axpy order (heads,
// decoder, encoder — part of the trajectory's fingerprint). Gradients
// accumulate into the network parameters; the caller applies a solver step
// and zeroes gradients.
func (tp *TrainPlan) Step(x *tensor.Tensor, boxes [][]Box, labeled []bool, w LossWeights) LossParts {
	return tp.StepStream(x, boxes, labeled, w, nil)
}

// StepStream is Step with per-layer gradient-completion notification
// (core.Workload.Step semantics): gradDone(t) fires as trainable layer t —
// Net.TrainableLayers order across the encoder, the three heads and the
// decoder — finishes its backward. The branching topology means the firing
// order is heads first, then decoder (reverse), then encoder (reverse); a
// decoder skipped this iteration (no reconstruction term) is notified
// immediately, its gradients being final by virtue of never accumulating.
func (tp *TrainPlan) StepStream(x *tensor.Tensor, boxes [][]Box, labeled []bool, w LossWeights, gradDone func(layer int)) LossParts {
	if x.Shape[0] != tp.batch {
		panic(fmt.Sprintf("climate: train plan compiled for batch %d, got %d", tp.batch, x.Shape[0]))
	}
	tp.gradDone = gradDone
	tp.lane.Begin(obs.PhaseFwd)
	feat := tp.enc.Forward(x)
	out := Output{
		Feat:  feat,
		Conf:  tp.conf.Forward(feat),
		Class: tp.class.Forward(feat),
		BoxP:  tp.box.Forward(feat),
	}
	if tp.dec != nil {
		out.Recon = tp.dec.Forward(feat)
	}
	parts := tp.net.lossInto(out, x, boxes, labeled, w, &tp.grads, &tp.sc)
	tp.lane.End(obs.PhaseFwd)

	// Backward fan-in: heads, decoder, encoder.
	tp.lane.Begin(obs.PhaseBwd)
	tp.dfeat.Zero()
	tensor.Axpy(1, tp.conf.BackwardStream(tp.grads.Conf, tp.notifyConf).Data, tp.dfeat.Data)
	tensor.Axpy(1, tp.class.BackwardStream(tp.grads.Class, tp.notifyClass).Data, tp.dfeat.Data)
	tensor.Axpy(1, tp.box.BackwardStream(tp.grads.BoxP, tp.notifyBox).Data, tp.dfeat.Data)
	if tp.dec != nil && out.Recon != nil && w.Recon > 0 {
		tensor.Axpy(1, tp.dec.BackwardStream(tp.grads.Recon, tp.notifyDec).Data, tp.dfeat.Data)
	} else if gradDone != nil {
		// No reconstruction term this iteration: the decoder's gradients
		// are final (zero) — notify in the order a real backward would.
		for t := tp.decN - 1; t >= 0; t-- {
			tp.notifyDec(t)
		}
	}
	tp.enc.BackwardParams(tp.dfeat, tp.notifyEnc)
	tp.lane.End(obs.PhaseBwd)
	tp.gradDone = nil
	return parts
}

// Release returns every plan slab to the arena. The TrainPlan must not be
// used afterwards.
func (tp *TrainPlan) Release() {
	for _, p := range []*nn.Plan{tp.enc, tp.conf, tp.class, tp.box, tp.dec} {
		if p != nil {
			p.Release()
		}
	}
	tp.arena.PutTensor(tp.dfeat)
	tp.arena.PutTensor(tp.grads.Conf)
	tp.arena.PutTensor(tp.grads.Class)
	tp.arena.PutTensor(tp.grads.BoxP)
	if tp.grads.Recon != nil {
		tp.arena.PutTensor(tp.grads.Recon)
	}
}

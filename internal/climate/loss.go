package climate

import (
	"math"

	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

// The objective of §III-B, verbatim from the paper: "simultaneously
// minimize the confidence of areas without a box, maximize those with a
// box, maximize the probability of the correct class for areas with a box,
// minimize the scale and location offset of the predicted box to the real
// box and minimize the reconstruction error of the autoencoder."

// LossWeights are the relative term weights.
type LossWeights struct {
	Obj, NoObj, Class, Coord, Recon float64
}

// DefaultLossWeights returns the tuned weights used in the reproduction
// (YOLO-style coordinate emphasis, down-weighted empty cells).
func DefaultLossWeights() LossWeights {
	return LossWeights{Obj: 1, NoObj: 0.5, Class: 1, Coord: 5, Recon: 1}
}

// LossParts is the decomposed objective value.
type LossParts struct {
	Obj, NoObj, Class, Coord, Recon float64
}

// Total returns the weighted sum (weights already applied per part).
func (l LossParts) Total() float64 {
	return l.Obj + l.NoObj + l.Class + l.Coord + l.Recon
}

// Grads carries gradients for each head output; entries are nil when that
// term was inactive (e.g. Recon for a decoder-less net).
type Grads struct {
	Conf, Class, BoxP, Recon *tensor.Tensor
}

// lossScratch holds the reusable buffers one loss evaluation needs: the
// encoded grid targets and the per-cell class softmax workspace. A zero
// value grows on first use; training plans keep one across iterations so
// the loss contributes no steady-state allocation.
type lossScratch struct {
	tgt           targetScratch
	logits, cgrad []float32
}

// Loss evaluates the multi-term objective and its gradients. x is the input
// batch (reconstruction target); boxes are per-sample ground truth; labeled
// marks which batch entries contribute detection terms (unlabeled samples
// contribute only reconstruction — the semi-supervised mechanism). A nil
// labeled slice treats every sample as labeled.
func (n *Net) Loss(out Output, x *tensor.Tensor, boxes [][]Box, labeled []bool, w LossWeights) (LossParts, Grads) {
	grads := Grads{
		Conf:  tensor.New(out.Conf.Shape...),
		Class: tensor.New(out.Class.Shape...),
		BoxP:  tensor.New(out.BoxP.Shape...),
	}
	if out.Recon != nil && w.Recon > 0 {
		grads.Recon = tensor.New(out.Recon.Shape...)
	}
	var sc lossScratch
	parts := n.lossInto(out, x, boxes, labeled, w, &grads, &sc)
	return parts, grads
}

// lossInto is Loss writing gradients into caller-owned tensors (zeroed
// here) and drawing its workspace from sc — the allocation-free form
// training plans run. grads.Recon may be nil when the reconstruction term
// is inactive; when present and active it is fully overwritten.
func (n *Net) lossInto(out Output, x *tensor.Tensor, boxes [][]Box, labeled []bool, w LossWeights, grads *Grads, sc *lossScratch) LossParts {
	batch := out.Conf.Shape[0]
	if len(boxes) != batch {
		panic("climate: box list count != batch size")
	}
	if labeled != nil && len(labeled) != batch {
		panic("climate: labeled mask count != batch size")
	}
	g := n.GridSize
	k := int(NumClasses)
	cells := g * g

	var parts LossParts
	grads.Conf.Zero()
	grads.Class.Zero()
	grads.BoxP.Zero()
	if cap(sc.logits) < k {
		sc.logits = make([]float32, k)
		sc.cgrad = make([]float32, k)
	}
	nLabeled := 0
	for s := 0; s < batch; s++ {
		if labeled == nil || labeled[s] {
			nLabeled++
		}
	}
	if nLabeled > 0 {
		invL := 1 / float64(nLabeled)
		for s := 0; s < batch; s++ {
			if labeled != nil && !labeled[s] {
				continue
			}
			n.encodeTargetInto(boxes[s], &sc.tgt)
			hasBox, cls := sc.tgt.hasBox, sc.tgt.class
			tx, ty, tw, th := sc.tgt.tx, sc.tgt.ty, sc.tgt.tw, sc.tgt.th
			confBase := s * cells
			classBase := s * k * cells
			boxBase := s * 4 * cells
			nBoxCells := 0
			for _, hb := range hasBox {
				if hb {
					nBoxCells++
				}
			}
			invCells := invL / float64(cells)
			var invBox float64
			if nBoxCells > 0 {
				invBox = invL / float64(nBoxCells)
			}
			for ci := 0; ci < cells; ci++ {
				confLogit := out.Conf.Data[confBase+ci]
				if !hasBox[ci] {
					l, dg := nn.BCEWithLogits(confLogit, 0)
					parts.NoObj += w.NoObj * l * invCells
					grads.Conf.Data[confBase+ci] += float32(w.NoObj*invCells) * dg
					continue
				}
				// Confidence toward 1.
				l, dg := nn.BCEWithLogits(confLogit, 1)
				parts.Obj += w.Obj * l * invBox
				grads.Conf.Data[confBase+ci] += float32(w.Obj*invBox) * dg

				// Class cross-entropy over the K class logits at this cell.
				logits := sc.logits[:k]
				for c := 0; c < k; c++ {
					logits[c] = out.Class.Data[classBase+c*cells+ci]
				}
				cg := sc.cgrad[:k]
				cl := softmaxCEInto(logits, cls[ci], cg)
				parts.Class += w.Class * cl * invBox
				for c := 0; c < k; c++ {
					grads.Class.Data[classBase+c*cells+ci] += float32(w.Class*invBox) * cg[c]
				}

				// Box geometry, smooth-L1 per coordinate.
				targets := [4]float32{tx[ci], ty[ci], tw[ci], th[ci]}
				for d := 0; d < 4; d++ {
					pred := out.BoxP.Data[boxBase+d*cells+ci]
					bl, bg := nn.SmoothL1(pred - targets[d])
					parts.Coord += w.Coord * bl * invBox
					grads.BoxP.Data[boxBase+d*cells+ci] += float32(w.Coord*invBox) * bg
				}
			}
		}
	}

	if out.Recon != nil && w.Recon > 0 && grads.Recon != nil {
		rl := nn.MSELossInto(out.Recon, x, grads.Recon)
		parts.Recon = w.Recon * rl
		tensor.Scale(float32(w.Recon), grads.Recon.Data)
	}
	return parts
}

// softmaxCEInto is a small-k softmax cross-entropy on one cell's logits,
// writing the gradient into grad (len(logits), fully overwritten).
func softmaxCEInto(logits []float32, label int, grad []float32) float64 {
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for _, v := range logits {
		sum += math.Exp(float64(v - maxv))
	}
	logZ := math.Log(sum) + float64(maxv)
	for j, v := range logits {
		p := float32(math.Exp(float64(v) - logZ))
		grad[j] = p
	}
	grad[label] -= 1
	return logZ - float64(logits[label])
}

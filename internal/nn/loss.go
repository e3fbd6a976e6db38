package nn

import (
	"fmt"
	"math"

	"deep15pf/internal/tensor"
)

// SoftmaxCrossEntropyInto computes the paper's HEP loss: softmax over
// class logits followed by cross-entropy against integer labels. It
// returns the mean loss over the batch and writes the gradient with
// respect to the logits (softmax(x) − onehot(label), divided by batch
// size) into grad, a caller-owned tensor of the logits' shape. Every
// gradient element is overwritten.
func SoftmaxCrossEntropyInto(logits *tensor.Tensor, labels []int, grad *tensor.Tensor) float64 {
	n, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != n {
		panic("nn: SoftmaxCrossEntropy label count mismatch")
	}
	if grad.Len() != n*k {
		panic("nn: SoftmaxCrossEntropy gradient size mismatch")
	}
	var loss float64
	for s := 0; s < n; s++ {
		row := logits.Data[s*k : (s+1)*k]
		grow := grad.Data[s*k : (s+1)*k]
		// log-sum-exp with max subtraction for stability
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logZ := math.Log(sum) + float64(maxv)
		lab := labels[s]
		if lab < 0 || lab >= k {
			panic("nn: label out of range")
		}
		loss += logZ - float64(row[lab])
		invN := 1 / float32(n)
		for j := range grow {
			p := float32(math.Exp(float64(row[j]) - logZ))
			if j == lab {
				grow[j] = (p - 1) * invN
			} else {
				grow[j] = p * invN
			}
		}
	}
	return loss / float64(n)
}

// SoftmaxCrossEntropyWeightedInto is SoftmaxCrossEntropyInto with a
// per-sample weight on each row's contribution — the semi-supervised
// trainer's knob for discounting pseudo-labeled samples against human
// labels (Kingma et al.-style loops weight the generated labels below the
// curated ones). The mean is taken over the weight total, so a batch of
// all-1 weights matches the unweighted loss in value; weights == nil
// delegates to the unweighted path outright, bit for bit. A batch whose
// weights sum to zero contributes nothing (loss 0, zero gradient) rather
// than dividing by zero.
func SoftmaxCrossEntropyWeightedInto(logits *tensor.Tensor, labels []int, weights []float32, grad *tensor.Tensor) float64 {
	if weights == nil {
		return SoftmaxCrossEntropyInto(logits, labels, grad)
	}
	n, k := logits.Shape[0], logits.Shape[1]
	if len(labels) != n || len(weights) != n {
		panic("nn: SoftmaxCrossEntropy label/weight count mismatch")
	}
	if grad.Len() != n*k {
		panic("nn: SoftmaxCrossEntropy gradient size mismatch")
	}
	var wsum float64
	for _, w := range weights {
		if w < 0 {
			panic("nn: negative sample weight")
		}
		wsum += float64(w)
	}
	if wsum == 0 {
		for i := range grad.Data[:n*k] {
			grad.Data[i] = 0
		}
		return 0
	}
	invW := float32(1 / wsum)
	var loss float64
	for s := 0; s < n; s++ {
		row := logits.Data[s*k : (s+1)*k]
		grow := grad.Data[s*k : (s+1)*k]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logZ := math.Log(sum) + float64(maxv)
		lab := labels[s]
		if lab < 0 || lab >= k {
			panic("nn: label out of range")
		}
		w := weights[s]
		// The conversion rounds the product before the add, so no
		// compiler fuses the two (tensor/axpy.go has the reason).
		loss += float64(float64(w) * (logZ - float64(row[lab])))
		scale := w * invW
		for j := range grow {
			p := float32(math.Exp(float64(row[j]) - logZ))
			if j == lab {
				grow[j] = (p - 1) * scale
			} else {
				grow[j] = p * scale
			}
		}
	}
	return loss / wsum
}

// SoftmaxTop1 computes each row's argmax class and its softmax
// probability — the confidence extraction the pseudo-label factory
// thresholds on. Ties resolve to the lowest class index (strict >
// comparison), so an all-equal row yields class 0 at confidence 1/k,
// deterministically. Any non-finite logit (NaN or ±Inf) is rejected with
// an explicit error naming the sample and class: a scoring pass over
// millions of unlabeled samples must fail loudly at the poisoned row, not
// write a garbage label that silently enters the next training run.
//
// conf and label must each hold exactly one entry per row. The pass is
// allocation-free — it runs once per batch on the bulk scoring hot path.
func SoftmaxTop1(logits *tensor.Tensor, conf []float32, label []int32) error {
	if logits.Rank() != 2 {
		return fmt.Errorf("nn: SoftmaxTop1 wants [batch, classes] logits, got shape %v", logits.Shape)
	}
	n, k := logits.Shape[0], logits.Shape[1]
	if len(conf) != n || len(label) != n {
		return fmt.Errorf("nn: SoftmaxTop1 destinations hold %d/%d entries for a %d-row batch", len(conf), len(label), n)
	}
	for s := 0; s < n; s++ {
		row := logits.Data[s*k : (s+1)*k]
		best := 0
		maxv := row[0]
		for j, v := range row {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Errorf("nn: SoftmaxTop1: non-finite logit %v at sample %d class %d", v, s, j)
			}
			if v > maxv {
				maxv, best = v, j
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		conf[s] = float32(1 / sum) // exp(max−max)/Σexp(v−max)
		label[s] = int32(best)
	}
	return nil
}

// SoftmaxProbs returns row-wise softmax probabilities, used at inference
// time for ROC scans.
func SoftmaxProbs(logits *tensor.Tensor) *tensor.Tensor {
	n, k := logits.Shape[0], logits.Shape[1]
	out := tensor.New(n, k)
	for s := 0; s < n; s++ {
		row := logits.Data[s*k : (s+1)*k]
		orow := out.Data[s*k : (s+1)*k]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			orow[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range orow {
			orow[j] *= inv
		}
	}
	return out
}

// Sigmoid returns 1/(1+exp(−x)) with clamping for stability.
func Sigmoid(x float32) float32 {
	if x < -30 {
		return 0
	}
	if x > 30 {
		return 1
	}
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// BCEWithLogits returns the binary cross-entropy of logit x against target
// t∈[0,1] and the gradient dLoss/dx = sigmoid(x) − t. The stable form
// max(x,0) − x·t + log(1+exp(−|x|)) is used.
func BCEWithLogits(x, t float32) (float64, float32) {
	ax := float64(x)
	loss := math.Max(ax, 0) - float64(ax*float64(t)) + math.Log1p(math.Exp(-math.Abs(ax)))
	return loss, Sigmoid(x) - t
}

// MSELossInto returns mean((pred−target)²)/2 and writes the gradient
// (pred−target)/n into grad, a caller-owned tensor of pred's size. Every
// gradient element is overwritten. Used for the climate decoder's
// reconstruction objective.
func MSELossInto(pred, target, grad *tensor.Tensor) float64 {
	if pred.Len() != target.Len() {
		panic("nn: MSELoss size mismatch")
	}
	if grad.Len() != pred.Len() {
		panic("nn: MSELoss gradient size mismatch")
	}
	n := float64(pred.Len())
	var loss float64
	invN := float32(1 / n)
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += float64(float64(d) * float64(d))
		grad.Data[i] = d * invN
	}
	return loss / (2 * n)
}

// SmoothL1 returns the Huber loss of residual r (δ=1) and its derivative.
// Used for bounding-box coordinate regression, as in the detection systems
// ([37]–[39]) the climate architecture adapts.
func SmoothL1(r float32) (float64, float32) {
	a := float64(r)
	if math.Abs(a) < 1 {
		return 0.5 * a * a, r
	}
	if a > 0 {
		return math.Abs(a) - 0.5, 1
	}
	return math.Abs(a) - 0.5, -1
}

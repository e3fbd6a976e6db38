package nn

import (
	"fmt"
	"math"
	"testing"

	"deep15pf/internal/tensor"
)

// gradCheck validates analytic gradients against central differences.
// loss() must recompute the full forward pass and return a scalar;
// analytic holds dLoss/dx for the entries of x being probed. Every probed
// coordinate must agree.
func gradCheck(t *testing.T, name string, x []float32, analytic []float32, loss func() float64, stride int) {
	t.Helper()
	if bad, total, worst := gradCheckCount(x, analytic, loss, stride); bad > 0 {
		t.Fatalf("%s: %d/%d probes disagree, worst %s", name, bad, total, worst)
	}
}

// gradCheckLoose is for compositions containing ReLU/maxpool kinks, where a
// finite-difference probe can legitimately flip an argmax and disagree with
// the (correct) analytic subgradient. It allows up to 10%% of probes to
// violate the tolerance.
func gradCheckLoose(t *testing.T, name string, x []float32, analytic []float32, loss func() float64, stride int) {
	t.Helper()
	bad, total, worst := gradCheckCount(x, analytic, loss, stride)
	if total == 0 {
		t.Fatalf("%s: no probes", name)
	}
	if float64(bad) > 0.10*float64(total) {
		t.Fatalf("%s: %d/%d probes disagree (>10%%), worst %s", name, bad, total, worst)
	}
}

func gradCheckCount(x []float32, analytic []float32, loss func() float64, stride int) (bad, total int, worst string) {
	// Small enough that maxpool argmax/ReLU masks rarely flip inside the
	// probe interval, large enough to stay above float32 forward noise.
	const eps = 2e-3
	worstErr := 0.0
	for i := 0; i < len(x); i += stride {
		old := x[i]
		x[i] = old + eps
		lp := loss()
		x[i] = old - eps
		lm := loss()
		x[i] = old
		num := (lp - lm) / (2 * eps)
		got := float64(analytic[i])
		tol := 3e-2*math.Abs(num) + 8e-3
		total++
		if err := math.Abs(got - num); err > tol {
			bad++
			if err > worstErr {
				worstErr = err
				worst = fmt.Sprintf("grad[%d] analytic %.6f vs numerical %.6f (tol %.6f)", i, got, num, tol)
			}
		}
	}
	return bad, total, worst
}

// weightedSumLoss builds a deterministic scalar loss L = Σ w·out so that
// dL/dout = w, giving every layer a fixed upstream gradient to check with.
func weightedSumLoss(out *tensor.Tensor, w []float32) float64 {
	var s float64
	for i, v := range out.Data {
		s += float64(v) * float64(w[i])
	}
	return s
}

func randWeights(rng *tensor.RNG, n int) []float32 {
	w := make([]float32, n)
	for i := range w {
		w[i] = float32(rng.Norm())
	}
	return w
}

// checkLayerGradients runs the full dx/dW/db check battery for a layer on a
// given input.
func checkLayerGradients(t *testing.T, l Layer, x *tensor.Tensor, rng *tensor.RNG) {
	t.Helper()
	r := run(l)
	out := r.Forward(x, true)
	w := randWeights(rng, out.Len())
	loss := func() float64 {
		return weightedSumLoss(r.Forward(x, true), w)
	}
	// Analytic gradients.
	for _, p := range l.Params() {
		p.Grad.Zero()
	}
	r.Forward(x, true)
	dout := tensor.FromSlice(append([]float32(nil), w...), out.Shape...)
	dx := r.Backward(dout)

	// Probe a subset of input entries (stride keeps runtime sane).
	stride := 1
	if x.Len() > 64 {
		stride = x.Len() / 64
	}
	gradCheck(t, l.Name()+"/dx", x.Data, dx.Data, loss, stride)

	for _, p := range l.Params() {
		pstride := 1
		if p.W.Len() > 64 {
			pstride = p.W.Len() / 64
		}
		gradCheck(t, l.Name()+"/"+p.Name, p.W.Data, p.Grad.Data, loss, pstride)
	}
}

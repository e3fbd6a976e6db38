package quant

import (
	"math"
	"testing"
	"testing/quick"

	"deep15pf/internal/tensor"
)

// throughInt8 sends data through the int8 wire in place — quantise on
// ScaleFor's grid with stochastic or nearest rounding, dequantise — and
// returns the grid's step: the distortion a gradient suffers crossing it.
func throughInt8(data []float32, rng *tensor.RNG, stochastic bool) float32 {
	scale := ScaleFor(data)
	q := make([]int8, len(data))
	if stochastic {
		StochasticInto(q, data, scale, rng)
	} else {
		NearestInto(q, data, scale)
	}
	DequantizeInto(data, q, scale)
	return scale
}

func TestRoundTripErrorBounded(t *testing.T) {
	rng := tensor.NewRNG(1)
	src := make([]float32, 1000)
	for i := range src {
		src[i] = float32(rng.Norm())
	}
	for _, stochastic := range []bool{true, false} {
		data := append([]float32(nil), src...)
		step := throughInt8(data, rng, stochastic)
		for i := range data {
			if err := math.Abs(float64(data[i] - src[i])); err > float64(step)*1.01 {
				t.Fatalf("stochastic=%v: error %v exceeds one step %v", stochastic, err, step)
			}
		}
	}
}

func TestStochasticRoundingUnbiased(t *testing.T) {
	// The §VIII property: averaging many stochastic round trips recovers
	// the value, even for sub-step magnitudes that nearest rounding kills.
	rng := tensor.NewRNG(2)
	src := []float32{0.3, -0.7, 100} // scale = 100/127 ≈ 0.79; |0.3| < step/2
	const trials = 20000
	sums := make([]float64, len(src))
	for k := 0; k < trials; k++ {
		data := append([]float32(nil), src...)
		throughInt8(data, rng, true)
		for i, v := range data {
			sums[i] += float64(v)
		}
	}
	for i, want := range src {
		got := sums[i] / trials
		if math.Abs(got-float64(want)) > 0.02 {
			t.Fatalf("stochastic mean[%d] = %v, want %v", i, got, want)
		}
	}
}

func TestNearestRoundingKillsSmallGradients(t *testing.T) {
	// The failure mode stochastic rounding exists to fix: gradients below
	// half a quantisation step vanish deterministically.
	out := []float32{0.3, 100} // step ≈ 0.79, so 0.3 < step/2
	throughInt8(out, nil, false)
	if out[0] != 0 {
		t.Fatalf("nearest should zero the small gradient, got %v", out[0])
	}
	if math.Abs(float64(out[1]-100)) > 1 {
		t.Fatalf("large value distorted: %v", out[1])
	}
}

func TestQuantizedSGDConvergesOnlyWithStochasticRounding(t *testing.T) {
	// Minimise (w−3)²/2 with int8-quantised gradients. Near the optimum
	// the gradient is small relative to its own scale... but per-tensor
	// scaling adapts; force the §VIII effect with a second, fixed large
	// coordinate keeping the scale coarse.
	run := func(stochastic bool) float64 {
		rng := tensor.NewRNG(3)
		w := []float32{0, 0} // w[1]'s large constant gradient pins the scale
		for i := 0; i < 4000; i++ {
			g := []float32{w[0] - 3, 50}
			throughInt8(g, rng, stochastic)
			w[0] -= 0.01 * g[0]
		}
		return math.Abs(float64(w[0]) - 3)
	}
	errStoch := run(true)
	errNearest := run(false)
	if errStoch > 0.2 {
		t.Fatalf("stochastic rounding failed to converge: err %v", errStoch)
	}
	if errNearest < errStoch {
		t.Fatalf("nearest (%v) should not beat stochastic (%v) here", errNearest, errStoch)
	}
	// The gradient magnitude (≤3) is far below half the step (50/127·0.5
	// ≈ 0.2 only near w=3 — the stall region); nearest must stall short.
	if errNearest < 0.1 {
		t.Fatalf("nearest rounding should stall, err %v", errNearest)
	}
}

func TestZeroTensor(t *testing.T) {
	out := make([]float32, 5)
	if scale := throughInt8(out, tensor.NewRNG(4), true); scale != 1 {
		t.Fatalf("zero tensor scale = %v", scale)
	}
	for _, v := range out {
		if v != 0 {
			t.Fatal("zero tensor must stay zero")
		}
	}
}

func TestDequantizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DequantizeInto(make([]float32, 2), make([]int8, 3), 1)
}

// Property: quantisation never increases the max magnitude by more than
// one step, and the sign of large entries is preserved.
func TestQuantizePropertyBounds(t *testing.T) {
	f := func(seed uint32) bool {
		rng := tensor.NewRNG(uint64(seed) + 9)
		n := 1 + rng.Intn(64)
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(rng.Norm() * 10)
		}
		out := append([]float32(nil), src...)
		step := float64(throughInt8(out, rng, true))
		for i := range src {
			if math.Abs(float64(out[i]-src[i])) > step*1.01 {
				return false
			}
			if math.Abs(float64(src[i])) > 2*step && out[i]*src[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIntoVariantsDoNotAllocate(t *testing.T) {
	rng := tensor.NewRNG(10)
	src := make([]float32, 4096)
	for i := range src {
		src[i] = float32(rng.Norm())
	}
	dst8 := make([]int8, len(src))
	dstF := make([]float32, len(src))
	scale := ScaleFor(src)
	if n := testing.AllocsPerRun(20, func() {
		StochasticInto(dst8, src, scale, rng)
		DequantizeInto(dstF, dst8, scale)
	}); n != 0 {
		t.Fatalf("quantize/dequantize steady state allocates %.1f per run", n)
	}
}

func TestIntoVariantsValidate(t *testing.T) {
	mustPanic := func(f func()) {
		defer func() { _ = recover() }()
		f()
		t.Fatal("expected panic")
	}
	rng := tensor.NewRNG(1)
	mustPanic(func() { StochasticInto(make([]int8, 2), make([]float32, 3), 1, rng) })
	mustPanic(func() { NearestInto(make([]int8, 2), make([]float32, 3), 1) })
}

package nn

import (
	"testing"

	"deep15pf/internal/tensor"
)

func TestConvIdentityKernel(t *testing.T) {
	rng := tensor.NewRNG(1)
	c := NewConv2D("conv", 1, 1, 1, 1, 0, rng)
	c.Weight.W.Data[0] = 1
	c.Bias.W.Data[0] = 0
	x := tensor.FromSlice([]float32{1, 2, 3, 4}, 1, 1, 2, 2)
	out := run(c).Forward(x, false)
	for i := range x.Data {
		if out.Data[i] != x.Data[i] {
			t.Fatalf("identity conv changed data: %v", out.Data)
		}
	}
}

func TestConvKnownValues(t *testing.T) {
	// 3x3 box filter, all-ones input, padding 1: interior pixels see 9
	// taps, corners 4, edges 6.
	rng := tensor.NewRNG(2)
	c := NewConv2D("conv", 1, 1, 3, 1, 1, rng)
	c.Weight.W.Fill(1)
	c.Bias.W.Data[0] = 0
	x := tensor.New(1, 1, 3, 3)
	x.Fill(1)
	out := run(c).Forward(x, false)
	want := []float32{4, 6, 4, 6, 9, 6, 4, 6, 4}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("out = %v, want %v", out.Data, want)
		}
	}
}

func TestConvBias(t *testing.T) {
	rng := tensor.NewRNG(3)
	c := NewConv2D("conv", 1, 2, 1, 1, 0, rng)
	c.Weight.W.Data[0] = 0
	c.Weight.W.Data[1] = 0
	c.Bias.W.Data[0] = 1.5
	c.Bias.W.Data[1] = -2
	x := tensor.New(1, 1, 2, 2)
	out := run(c).Forward(x, false)
	if out.At(0, 0, 1, 1) != 1.5 || out.At(0, 1, 0, 0) != -2 {
		t.Fatalf("bias broadcast wrong: %v", out.Data)
	}
}

func TestConvStrideShape(t *testing.T) {
	rng := tensor.NewRNG(4)
	c := NewConv2D("conv", 16, 32, 3, 2, 1, rng)
	got := c.OutShape([]int{16, 64, 64})
	if got[0] != 32 || got[1] != 32 || got[2] != 32 {
		t.Fatalf("OutShape = %v, want [32 32 32]", got)
	}
}

func TestConvGradients(t *testing.T) {
	rng := tensor.NewRNG(5)
	for _, cfg := range []struct{ inC, outC, k, s, p, h int }{
		{2, 3, 3, 1, 1, 5},
		{3, 2, 3, 2, 1, 6},
		{1, 4, 2, 2, 0, 4},
	} {
		c := NewConv2D("conv", cfg.inC, cfg.outC, cfg.k, cfg.s, cfg.p, rng)
		x := tensor.New(2, cfg.inC, cfg.h, cfg.h)
		rng.FillNorm(x, 0, 1)
		checkLayerGradients(t, c, x, rng)
	}
}

func TestConvGradientAccumulation(t *testing.T) {
	// Two backward passes without ZeroGrad must accumulate.
	rng := tensor.NewRNG(6)
	c := NewConv2D("conv", 1, 1, 3, 1, 1, rng)
	x := tensor.New(1, 1, 4, 4)
	rng.FillNorm(x, 0, 1)
	r := run(c)
	out := r.Forward(x, true)
	dout := tensor.New(out.Shape...)
	dout.Fill(1)
	r.Backward(dout)
	g1 := append([]float32(nil), c.Weight.Grad.Data...)
	r.Forward(x, true)
	r.Backward(dout)
	for i := range g1 {
		if diff := c.Weight.Grad.Data[i] - 2*g1[i]; diff > 1e-4 || diff < -1e-4 {
			t.Fatalf("gradient did not accumulate: %v vs 2*%v", c.Weight.Grad.Data[i], g1[i])
		}
	}
}

func TestConvFLOPsHEPFirstLayer(t *testing.T) {
	// Paper HEP conv1: 3→128 filters 3x3 on 224×224, stride 1 pad 1.
	// Algorithmic fwd = 2·128·(3·3·3)·224·224 = 346,816,512.
	rng := tensor.NewRNG(7)
	c := NewConv2D("conv1", 3, 128, 3, 1, 1, rng)
	f := c.FLOPs([]int{3, 224, 224})
	if f.Fwd != 346816512 {
		t.Fatalf("conv1 fwd flops = %d, want 346816512", f.Fwd)
	}
	if f.Bwd != 2*f.Fwd {
		t.Fatalf("bwd must be 2x fwd, got %d", f.Bwd)
	}
	// Executed pads 3 channels to 16: ratio 16/3 on the reduction dim.
	if f.FwdExecuted <= f.Fwd*4 {
		t.Fatalf("executed flops should reflect ~5.3x channel padding: %d vs %d", f.FwdExecuted, f.Fwd)
	}
}

func TestConvParamCount(t *testing.T) {
	rng := tensor.NewRNG(8)
	c := NewConv2D("conv", 128, 128, 3, 1, 1, rng)
	// 128·128·9 weights + 128 bias = 147,584 params ≈ the paper's "∼590 KB
	// model per layer" (§VI-B2).
	total := 0
	for _, p := range c.Params() {
		total += p.NumEl()
	}
	if total != 128*128*9+128 {
		t.Fatalf("param count = %d", total)
	}
}

func TestConvBadInputPanics(t *testing.T) {
	rng := tensor.NewRNG(9)
	c := NewConv2D("conv", 3, 8, 3, 1, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on channel mismatch")
		}
	}()
	run(c).Forward(tensor.New(1, 4, 8, 8), false)
}

func TestConvBackwardBeforeForwardPanics(t *testing.T) {
	rng := tensor.NewRNG(10)
	c := NewConv2D("conv", 1, 1, 3, 1, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.BackwardInto(&PlanState{}, tensor.New(1, 1, 4, 4), tensor.New(1, 1, 4, 4))
}

package nn

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"deep15pf/internal/tensor"
)

func TestDeconvOutShapeInvertsConv(t *testing.T) {
	// A deconv with the same geometry as a strided conv must restore the
	// conv's input spatial size — the property the climate decoder relies
	// on to reconstruct the input.
	rng := tensor.NewRNG(1)
	conv := NewConv2D("enc", 8, 16, 3, 2, 1, rng)
	dec := NewDeconv2D("dec", 16, 8, 3, 2, 1, rng)
	in := []int{8, 65, 65} // odd size: (65+2-3)/2+1 = 33; (33-1)*2+3-2 = 65
	mid := conv.OutShape(in)
	back := dec.OutShape(mid)
	if back[1] != in[1] || back[2] != in[2] {
		t.Fatalf("conv %v -> %v -> deconv %v", in, mid, back)
	}
}

// TestDeconvIsConvTranspose verifies the paper's §III-C construction
// directly: for zero bias, ⟨deconv(x), y⟩ == ⟨x, conv(y)⟩ when the deconv
// and conv share the same weight tensor — i.e. deconv forward is exactly
// the adjoint (backward-data) of the convolution.
func TestDeconvIsConvTranspose(t *testing.T) {
	f := func(seed uint32) bool {
		rng := tensor.NewRNG(uint64(seed)*31 + 7)
		inC := 1 + rng.Intn(3)
		outC := 1 + rng.Intn(3)
		k := 2 + rng.Intn(2)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(2)
		h := 3 + rng.Intn(4)
		if k > h+2*pad {
			return true
		}
		dec := NewDeconv2D("dec", inC, outC, k, stride, pad, rng)
		dec.Bias.W.Zero()
		// The adjoint conv maps outC→inC with the same weights.
		conv := NewConv2D("conv", outC, inC, k, stride, pad, rng)
		conv.Bias.W.Zero()
		copy(conv.Weight.W.Data, dec.Weight.W.Data)

		x := tensor.New(1, inC, h, h)
		rng.FillNorm(x, 0, 1)
		yShape := dec.OutShape([]int{inC, h, h})
		y := tensor.New(1, yShape[0], yShape[1], yShape[2])
		rng.FillNorm(y, 0, 1)

		dx := run(dec).Forward(x, false)
		cy := run(conv).Forward(y, false)
		var lhs, rhs float64
		for i := range y.Data {
			lhs += float64(dx.Data[i]) * float64(y.Data[i])
		}
		for i := range x.Data {
			rhs += float64(x.Data[i]) * float64(cy.Data[i])
		}
		return math.Abs(lhs-rhs) <= 1e-2*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestDeconvGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	for _, cfg := range []struct{ inC, outC, k, s, p, h int }{
		{2, 3, 3, 2, 1, 3},
		{3, 2, 2, 2, 0, 3},
		{1, 2, 3, 1, 1, 4},
	} {
		d := NewDeconv2D("deconv", cfg.inC, cfg.outC, cfg.k, cfg.s, cfg.p, rng)
		x := tensor.New(2, cfg.inC, cfg.h, cfg.h)
		rng.FillNorm(x, 0, 1)
		checkLayerGradients(t, d, x, rng)
	}
}

func TestDeconvUpsamples(t *testing.T) {
	rng := tensor.NewRNG(4)
	d := NewDeconv2D("dec", 4, 2, 3, 2, 1, rng)
	x := tensor.New(1, 4, 8, 8)
	out := run(d).Forward(x, false)
	if out.Shape[2] != 15 || out.Shape[3] != 15 {
		t.Fatalf("deconv output %v, want 15x15", out.Shape)
	}
}

func TestDeconvFLOPsMirrorConv(t *testing.T) {
	// Paper: deconv layers "perform very similarly to the corresponding
	// convolution layers" — counts must match the adjoint conv's.
	rng := tensor.NewRNG(5)
	dec := NewDeconv2D("dec", 64, 32, 3, 2, 1, rng)
	conv := NewConv2D("conv", 32, 64, 3, 2, 1, rng)
	in := []int{64, 16, 16}
	outShape := dec.OutShape(in)
	fDec := dec.FLOPs(in)
	fConv := conv.FLOPs(outShape)
	if fDec.Fwd != fConv.Fwd {
		t.Fatalf("deconv fwd %d != adjoint conv fwd %d", fDec.Fwd, fConv.Fwd)
	}
}

func TestDeconvBackwardBeforeForwardPanics(t *testing.T) {
	rng := tensor.NewRNG(6)
	d := NewDeconv2D("dec", 1, 1, 3, 1, 1, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.BackwardInto(&PlanState{}, tensor.New(1, 1, 4, 4), tensor.New(1, 1, 4, 4))
}

// BenchmarkDeconvStep times one training step — forward, then backward with
// the input gradient — of each decoder layer of the climate benchmark net
// (k4/s2/p1, 4×4 → 8×8 → 16×16 → 32×32) at batch 4 on one thread, and
// reports the layer's algorithmic GFLOP/s next to ns/op.
func BenchmarkDeconvStep(b *testing.B) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	rng := tensor.NewRNG(1)
	const n = 4
	for _, g := range []struct{ inC, outC, hw int }{{128, 64, 4}, {64, 32, 8}, {32, 16, 16}} {
		d := NewDeconv2D("d", g.inC, g.outC, 4, 2, 1, rng)
		rng.FillNorm(d.Bias.W, 0, 1)
		in := []int{g.inC, g.hw, g.hw}
		x, y := randBatch(rng, n, in), tensor.New(append([]int{n}, d.OutShape(in)...)...)
		dout, dx := randBatch(rng, n, y.Shape[1:]), tensor.New(x.Shape...)
		var st PlanState
		b.Run(fmt.Sprintf("%dx%dx%d_to_%d", g.inC, g.hw, g.hw, g.outC), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.ForwardInto(&st, y, x, true)
				d.BackwardInto(&st, dx, dout)
			}
			b.ReportMetric(float64(n)*float64(d.FLOPs(in).Total())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

package nn

import (
	"slices"
	"testing"
	"testing/quick"

	"deep15pf/internal/tensor"
)

func TestMaxPoolKnownValues(t *testing.T) {
	p := NewMaxPool2D("pool", 2, 2)
	x := tensor.FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	out := run(p).Forward(x, false)
	want := []float32{4, 8, 12, 16}
	for i := range want {
		if out.Data[i] != want[i] {
			t.Fatalf("maxpool = %v, want %v", out.Data, want)
		}
	}
}

func TestMaxPoolBackwardRoutesToArgmax(t *testing.T) {
	p := run(NewMaxPool2D("pool", 2, 2))
	x := tensor.FromSlice([]float32{
		1, 2,
		3, 4,
	}, 1, 1, 2, 2)
	p.Forward(x, true)
	dout := tensor.FromSlice([]float32{10}, 1, 1, 1, 1)
	dx := p.Backward(dout)
	want := []float32{0, 0, 0, 10}
	for i := range want {
		if dx.Data[i] != want[i] {
			t.Fatalf("dx = %v, want %v", dx.Data, want)
		}
	}
}

func TestMaxPoolGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	p := NewMaxPool2D("pool", 2, 2)
	x := tensor.New(2, 3, 6, 6)
	rng.FillNorm(x, 0, 1)
	checkLayerGradients(t, p, x, rng)
}

// Property: pooling a tensor twice with k=s=1 is the identity, and pooled
// maxima never exceed the input max.
func TestMaxPoolInvariants(t *testing.T) {
	f := func(seed uint32) bool {
		rng := tensor.NewRNG(uint64(seed) + 17)
		h := 2 + rng.Intn(6)
		x := tensor.New(1, 2, h, h)
		rng.FillNorm(x, 0, 1)
		p1 := NewMaxPool2D("p1", 1, 1)
		out := run(p1).Forward(x, false)
		for i := range out.Data {
			if out.Data[i] != x.Data[i] {
				return false
			}
		}
		p2 := NewMaxPool2D("p2", 2, 2)
		out2 := run(p2).Forward(x, false)
		return slices.Max(out2.Data) <= slices.Max(x.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalAvgPoolKnownValues(t *testing.T) {
	p := NewGlobalAvgPool("gap")
	x := tensor.FromSlice([]float32{1, 2, 3, 4, 10, 10, 10, 10}, 1, 2, 2, 2)
	out := run(p).Forward(x, false)
	if out.Shape[0] != 1 || out.Shape[1] != 2 {
		t.Fatalf("gap shape %v", out.Shape)
	}
	if out.Data[0] != 2.5 || out.Data[1] != 10 {
		t.Fatalf("gap = %v", out.Data)
	}
}

func TestGlobalAvgPoolGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	p := NewGlobalAvgPool("gap")
	x := tensor.New(2, 3, 4, 4)
	rng.FillNorm(x, 0, 1)
	checkLayerGradients(t, p, x, rng)
}

func TestGlobalAvgPoolBackwardDistributes(t *testing.T) {
	p := run(NewGlobalAvgPool("gap"))
	x := tensor.New(1, 1, 2, 2)
	p.Forward(x, true)
	dout := tensor.FromSlice([]float32{8}, 1, 1)
	dx := p.Backward(dout)
	for _, v := range dx.Data {
		if v != 2 { // 8 / 4 pixels
			t.Fatalf("dx = %v, want uniform 2", dx.Data)
		}
	}
}

func TestPoolOutShapes(t *testing.T) {
	p := NewMaxPool2D("pool", 2, 2)
	got := p.OutShape([]int{128, 224, 224})
	if got[0] != 128 || got[1] != 112 || got[2] != 112 {
		t.Fatalf("OutShape = %v", got)
	}
	g := NewGlobalAvgPool("gap")
	if s := g.OutShape([]int{128, 14, 14}); len(s) != 1 || s[0] != 128 {
		t.Fatalf("gap OutShape = %v", s)
	}
}

func TestMaxPoolNoParams(t *testing.T) {
	if len(NewMaxPool2D("p", 2, 2).Params()) != 0 || len(NewGlobalAvgPool("g").Params()) != 0 {
		t.Fatal("pooling layers must be parameter-free")
	}
}

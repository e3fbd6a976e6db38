package nn

import (
	"math"
	"testing"

	"deep15pf/internal/tensor"
)

func TestDenseKnownValues(t *testing.T) {
	rng := tensor.NewRNG(1)
	d := NewDense("fc", 2, 2, rng)
	copy(d.Weight.W.Data, []float32{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(d.Bias.W.Data, []float32{0.5, -0.5})
	x := tensor.FromSlice([]float32{1, 1}, 1, 2)
	out := run(d).Forward(x, false)
	if out.Data[0] != 3.5 || out.Data[1] != 6.5 {
		t.Fatalf("dense = %v, want [3.5 6.5]", out.Data)
	}
}

func TestDenseGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	d := NewDense("fc", 6, 4, rng)
	x := tensor.New(3, 6)
	rng.FillNorm(x, 0, 1)
	checkLayerGradients(t, d, x, rng)
}

func TestDenseAcceptsSpatialInput(t *testing.T) {
	// Dense flattens whatever per-sample shape it receives.
	rng := tensor.NewRNG(3)
	d := NewDense("fc", 12, 2, rng)
	x := tensor.New(2, 3, 2, 2)
	out := run(d).Forward(x, false)
	if out.Shape[0] != 2 || out.Shape[1] != 2 {
		t.Fatalf("shape %v", out.Shape)
	}
}

func TestReLUKnownValues(t *testing.T) {
	r := run(NewReLU("relu"))
	x := tensor.FromSlice([]float32{-1, 0, 2}, 1, 3)
	out := r.Forward(x, true)
	if out.Data[0] != 0 || out.Data[1] != 0 || out.Data[2] != 2 {
		t.Fatalf("relu = %v", out.Data)
	}
	dx := r.Backward(tensor.FromSlice([]float32{5, 5, 5}, 1, 3))
	if dx.Data[0] != 0 || dx.Data[1] != 0 || dx.Data[2] != 5 {
		t.Fatalf("relu grad = %v", dx.Data)
	}
}

func TestReLUGradients(t *testing.T) {
	rng := tensor.NewRNG(4)
	r := NewReLU("relu")
	x := tensor.New(2, 8)
	// Keep values away from the kink at 0 so central differences are valid.
	for i := range x.Data {
		v := float32(rng.Norm())
		if v > -0.05 && v < 0.05 {
			v += 0.2
		}
		x.Data[i] = v
	}
	checkLayerGradients(t, r, x, rng)
}

func TestHeInitStd(t *testing.T) {
	rng := tensor.NewRNG(5)
	w := tensor.New(200, 128)
	HeInit(w, 128, rng)
	var sum2 float64
	for _, v := range w.Data {
		sum2 += float64(v) * float64(v)
	}
	std := math.Sqrt(sum2 / float64(w.Len()))
	want := math.Sqrt(2.0 / 128)
	if math.Abs(std-want) > 0.01 {
		t.Fatalf("He std = %v, want %v", std, want)
	}
}

func TestHeInitPanicsOnBadFanIn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	HeInit(tensor.New(4), 0, tensor.NewRNG(1))
}

package nn

import (
	"testing"

	"deep15pf/internal/tensor"
)

func streamTestNet(seed uint64) *Network {
	rng := tensor.NewRNG(seed)
	n := NewNetwork("stream", 1, 8, 8)
	n.Add(
		NewConv2D("conv1", 1, 4, 3, 1, 1, rng),
		NewReLU("relu1"),
		NewConv2D("conv2", 4, 4, 3, 1, 1, rng),
		NewMaxPool2D("pool", 2, 2),
		NewGlobalAvgPool("gap"),
		NewDense("fc", 4, 3, rng),
	)
	return n
}

// TestBackwardStreamOrderAndFinality: gradDone must fire once per trainable
// layer in reverse topological order, and at the instant a layer is
// notified its gradients must already equal their final values.
func TestBackwardStreamOrderAndFinality(t *testing.T) {
	net := streamTestNet(3)
	layers := net.TrainableLayers()
	rng := tensor.NewRNG(9)
	x := tensor.New(2, 1, 8, 8)
	rng.FillNorm(x, 0, 1)

	net.ZeroGrad()
	var order []int
	snaps := make([][][]float32, len(layers))
	record := func(l int) {
		order = append(order, l)
		for _, prm := range layers[l].Params() {
			snaps[l] = append(snaps[l], append([]float32(nil), prm.Grad.Data...))
		}
	}
	plan := Compile(net, 2, true, nil)
	plan.BackwardStream(plan.Forward(x).Clone(), record)

	if len(order) != len(layers) {
		t.Fatalf("%d notifications for %d trainable layers", len(order), len(layers))
	}
	for i, l := range order {
		if want := len(layers) - 1 - i; l != want {
			t.Fatalf("notification %d was layer %d, want %d (reverse order)", i, l, want)
		}
	}
	// Finality: the snapshot taken at notification time must be the
	// gradient the layer holds after the whole backward pass.
	for l, layer := range layers {
		for pi, prm := range layer.Params() {
			for i, v := range prm.Grad.Data {
				if snaps[l][pi][i] != v {
					t.Fatalf("layer %d param %d grad changed after notification", l, pi)
				}
			}
		}
	}
}

// TestBackwardStreamNilCallbackMatchesBackward: the wrapper contract — a
// nil callback is exactly the whole-backward entry point.
func TestBackwardStreamNilCallbackMatchesBackward(t *testing.T) {
	netA := streamTestNet(5)
	netB := streamTestNet(5)
	rng := tensor.NewRNG(11)
	x := tensor.New(2, 1, 8, 8)
	rng.FillNorm(x, 0, 1)

	planA, planB := Compile(netA, 2, true, nil), Compile(netB, 2, true, nil)
	dxA := planA.Backward(planA.Forward(x).Clone())
	dxB := planB.BackwardStream(planB.Forward(x).Clone(), nil)
	for i := range dxA.Data {
		if dxA.Data[i] != dxB.Data[i] {
			t.Fatalf("input gradients diverge at %d", i)
		}
	}
	pa, pb := netA.Params(), netB.Params()
	for i := range pa {
		for j := range pa[i].Grad.Data {
			if pa[i].Grad.Data[j] != pb[i].Grad.Data[j] {
				t.Fatalf("param %s grad diverges at %d", pa[i].Name, j)
			}
		}
	}
}

package nn

import (
	"strings"
	"testing"

	"deep15pf/internal/tensor"
)

func tinyNet(rng *tensor.RNG) *Network {
	n := NewNetwork("tiny", 2, 8, 8)
	n.Add(
		NewConv2D("conv1", 2, 4, 3, 1, 1, rng),
		NewReLU("relu1"),
		NewMaxPool2D("pool1", 2, 2),
		NewConv2D("conv2", 4, 4, 3, 1, 1, rng),
		NewReLU("relu2"),
		NewGlobalAvgPool("gap"),
		NewDense("fc", 4, 2, rng),
	)
	return n
}

func TestNetworkShapePropagation(t *testing.T) {
	n := tinyNet(tensor.NewRNG(1))
	out := n.OutShape()
	if len(out) != 1 || out[0] != 2 {
		t.Fatalf("OutShape = %v", out)
	}
	x := tensor.New(3, 2, 8, 8)
	y := Compile(n, 3, false, nil).Forward(x)
	if y.Shape[0] != 3 || y.Shape[1] != 2 {
		t.Fatalf("forward shape %v", y.Shape)
	}
}

func TestNetworkAddRejectsIncompatible(t *testing.T) {
	rng := tensor.NewRNG(2)
	n := NewNetwork("bad", 2, 8, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on channel mismatch")
		}
	}()
	n.Add(NewConv2D("conv", 3, 4, 3, 1, 1, rng)) // wants 3 channels, gets 2
}

func TestNetworkEndToEndGradient(t *testing.T) {
	rng := tensor.NewRNG(3)
	n := tinyNet(rng)
	x := tensor.New(2, 2, 8, 8)
	rng.FillNorm(x, 0, 1)
	labels := []int{0, 1}

	plan := Compile(n, 2, true, nil)
	loss := func() float64 {
		l, _ := SoftmaxCrossEntropy(plan.Forward(x), labels)
		return l
	}
	n.ZeroGrad()
	_, dlogits := SoftmaxCrossEntropy(plan.Forward(x), labels)
	dx := plan.Backward(dlogits).Clone()

	// The composition contains ReLU and maxpool kinks, so a small fraction
	// of finite-difference probes may cross an argmax boundary; the smooth
	// sub-networks are checked strictly in their own tests.
	gradCheckLoose(t, "net/dx", x.Data, dx.Data, loss, 7)
	for _, p := range n.Params() {
		stride := 1
		if p.W.Len() > 40 {
			stride = p.W.Len() / 40
		}
		gradCheckLoose(t, "net/"+p.Name, p.W.Data, p.Grad.Data, loss, stride)
	}
}

func TestNetworkZeroGrad(t *testing.T) {
	rng := tensor.NewRNG(4)
	n := tinyNet(rng)
	x := tensor.New(1, 2, 8, 8)
	rng.FillNorm(x, 0, 1)
	plan := Compile(n, 1, true, nil)
	_, d := SoftmaxCrossEntropy(plan.Forward(x), []int{0})
	plan.Backward(d)
	n.ZeroGrad()
	for _, p := range n.Params() {
		if p.Grad.AbsMax() != 0 {
			t.Fatalf("%s grad not zeroed", p.Name)
		}
	}
}

func TestNetworkScaleGrad(t *testing.T) {
	rng := tensor.NewRNG(5)
	n := tinyNet(rng)
	x := tensor.New(1, 2, 8, 8)
	rng.FillNorm(x, 0, 1)
	plan := Compile(n, 1, true, nil)
	_, d := SoftmaxCrossEntropy(plan.Forward(x), []int{0})
	plan.Backward(d)
	before := n.Params()[0].Grad.Clone()
	n.ScaleGrad(0.5)
	after := n.Params()[0].Grad
	for i := range before.Data {
		if after.Data[i] != before.Data[i]*0.5 {
			t.Fatal("ScaleGrad wrong")
		}
	}
}

func TestNetworkParamAccounting(t *testing.T) {
	n := tinyNet(tensor.NewRNG(6))
	// conv1: 4·(2·9)+4=76; conv2: 4·(4·9)+4=148; fc: 2·4+2=10 → 234.
	if n.NumParams() != 234 {
		t.Fatalf("NumParams = %d, want 234", n.NumParams())
	}
	if n.ParamBytes() != 936 {
		t.Fatalf("ParamBytes = %d, want 936", n.ParamBytes())
	}
}

func TestTrainableLayers(t *testing.T) {
	n := tinyNet(tensor.NewRNG(7))
	tl := n.TrainableLayers()
	if len(tl) != 3 {
		t.Fatalf("trainable layers = %d, want 3 (conv1, conv2, fc)", len(tl))
	}
}

func TestFLOPBreakdownSumsToTotal(t *testing.T) {
	n := tinyNet(tensor.NewRNG(8))
	var sum FlopCount
	for _, row := range n.FLOPBreakdown() {
		sum = sum.Add(row.Count)
	}
	total := n.FLOPsPerSample()
	if sum != total {
		t.Fatalf("breakdown sum %+v != total %+v", sum, total)
	}
	if total.Fwd <= 0 || total.Bwd <= 0 {
		t.Fatal("flop counts must be positive")
	}
	if total.TotalExecuted() < total.Total() {
		t.Fatal("executed flops must dominate algorithmic")
	}
}

func TestFlopCountArithmetic(t *testing.T) {
	a := FlopCount{Fwd: 1, Bwd: 2, FwdExecuted: 3, BwdExecuted: 4}
	b := a.Scale(2)
	if b.Fwd != 2 || b.BwdExecuted != 8 {
		t.Fatalf("Scale = %+v", b)
	}
	c := a.Add(b)
	if c.Total() != 9 || c.TotalExecuted() != 21 {
		t.Fatalf("Add = %+v", c)
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	rngA := tensor.NewRNG(9)
	rngB := tensor.NewRNG(10)
	a := tinyNet(rngA)
	b := tinyNet(rngB)
	b.CopyWeightsFrom(a)
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].W.Data {
			if pa[i].W.Data[j] != pb[i].W.Data[j] {
				t.Fatal("weights not copied")
			}
		}
	}
	// Must be a copy, not an alias.
	pb[0].W.Data[0] += 1
	if pa[0].W.Data[0] == pb[0].W.Data[0] {
		t.Fatal("CopyWeightsFrom aliased storage")
	}
}

func TestSummaryMentionsAllLayers(t *testing.T) {
	n := tinyNet(tensor.NewRNG(12))
	s := n.Summary()
	for _, name := range []string{"conv1", "pool1", "gap", "fc", "total params"} {
		if !strings.Contains(s, name) {
			t.Fatalf("summary missing %q:\n%s", name, s)
		}
	}
}

func TestInferMatchesForwardEval(t *testing.T) {
	rng := tensor.NewRNG(13)
	n := tinyNet(rng)
	x := tensor.New(2, 2, 8, 8)
	rng.FillNorm(x, 0, 1)
	want := Compile(n, 2, true, nil).Forward(x)
	got := Compile(n, 2, false, nil).Forward(x)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatal("inference plan diverges from the training plan's forward")
		}
	}
}

func TestReleaseGradients(t *testing.T) {
	rng := tensor.NewRNG(14)
	n := tinyNet(rng)
	x := tensor.New(1, 2, 8, 8)
	rng.FillNorm(x, 0, 1)
	before := Compile(n, 1, false, nil).Forward(x)

	n.ReleaseGradients()
	for _, p := range n.Params() {
		if p.Grad != nil {
			t.Fatalf("%s still holds a gradient accumulator", p.Name)
		}
	}
	// ZeroGrad/ScaleGrad must be safe no-ops on a released network, and
	// inference must be unaffected.
	n.ZeroGrad()
	n.ScaleGrad(0.5)
	after := Compile(n, 1, false, nil).Forward(x)
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("ReleaseGradients changed inference results")
		}
	}
}

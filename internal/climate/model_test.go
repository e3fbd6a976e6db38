package climate

import (
	"math"
	"testing"

	"deep15pf/internal/tensor"
)

func TestPaperConfigMatchesTableII(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-size model allocation")
	}
	rng := tensor.NewRNG(1)
	net := BuildNet(PaperConfig(), rng)
	// Table II: 302.1 MiB of parameters; 9 convs + 5 deconvs = 14
	// trainable layers (the paper dedicates 14 parameter servers).
	mib := float64(net.ParamBytes()) / (1 << 20)
	if math.Abs(mib-302.1) > 5 {
		t.Fatalf("param size %.1f MiB, Table II says 302.1 MiB", mib)
	}
	if got := len(net.TrainableLayers()); got != 14 {
		t.Fatalf("trainable layers = %d, want 14", got)
	}
	if net.GridSize != 24 || net.CellSize != 32 {
		t.Fatalf("grid %dx%d cell %d", net.GridSize, net.GridSize, net.CellSize)
	}
}

func TestSmallNetForwardShapes(t *testing.T) {
	rng := tensor.NewRNG(2)
	cfg := SmallConfig()
	net := BuildNet(cfg, rng)
	x := tensor.New(2, NumChannels, cfg.Size, cfg.Size)
	rng.FillNorm(x, 0, 1)
	out := newRef(net).Forward(x, false)
	g := net.GridSize
	if out.Conf.Shape[0] != 2 || out.Conf.Shape[1] != 1 || out.Conf.Shape[2] != g {
		t.Fatalf("conf shape %v", out.Conf.Shape)
	}
	if out.Class.Shape[1] != int(NumClasses) {
		t.Fatalf("class shape %v", out.Class.Shape)
	}
	if out.BoxP.Shape[1] != 4 {
		t.Fatalf("box shape %v", out.BoxP.Shape)
	}
	if out.Recon.Shape[1] != NumChannels || out.Recon.Shape[2] != cfg.Size {
		t.Fatalf("recon shape %v", out.Recon.Shape)
	}
	// The forward-only schedule gives the reference's heads bit for bit.
	got := net.NewScorer().Forward(x)
	for name, pair := range map[string][2]*tensor.Tensor{
		"conf": {got.Conf, out.Conf}, "class": {got.Class, out.Class}, "box": {got.BoxP, out.BoxP},
	} {
		for i, v := range pair[1].Data {
			if pair[0].Data[i] != v {
				t.Fatalf("scorer %s[%d] = %v, reference %v", name, i, pair[0].Data[i], v)
			}
		}
	}
}

func TestSupervisedOnlyAblationHasNoDecoder(t *testing.T) {
	rng := tensor.NewRNG(3)
	cfg := SmallConfig()
	cfg.WithDecoder = false
	net := BuildNet(cfg, rng)
	x := tensor.New(1, NumChannels, cfg.Size, cfg.Size)
	out := newRef(net).Forward(x, false)
	if out.Recon != nil {
		t.Fatal("decoder-less net must not reconstruct")
	}
	withDec := BuildNet(SmallConfig(), tensor.NewRNG(3))
	if len(net.TrainableLayers()) >= len(withDec.TrainableLayers()) {
		t.Fatal("ablation should drop the deconv layers")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(4)
	net := BuildNet(SmallConfig(), rng)
	truth := Box{X: 10, Y: 20, W: 24, H: 18, Class: ExtratropicalCyclone}
	hasBox, cls, tx, ty, tw, th := net.EncodeTarget([]Box{truth})
	// Find the owning cell and hand-decode through the same transform the
	// network output uses.
	g := net.GridSize
	cell := float64(net.CellSize)
	found := false
	for i := range hasBox {
		if !hasBox[i] {
			continue
		}
		found = true
		gy, gx := i/g, i%g
		x := float64(gx)*cell + float64(tx[i])*cell
		y := float64(gy)*cell + float64(ty[i])*cell
		w := cell * math.Exp(float64(tw[i]))
		h := cell * math.Exp(float64(th[i]))
		if math.Abs(x-truth.X) > 1e-3 || math.Abs(y-truth.Y) > 1e-3 {
			t.Fatalf("decoded corner (%v,%v), want (%v,%v)", x, y, truth.X, truth.Y)
		}
		if math.Abs(w-truth.W) > 1e-3 || math.Abs(h-truth.H) > 1e-3 {
			t.Fatalf("decoded size (%v,%v), want (%v,%v)", w, h, truth.W, truth.H)
		}
		if cls[i] != int(truth.Class) {
			t.Fatal("class target wrong")
		}
	}
	if !found {
		t.Fatal("no cell owns the box")
	}
}

func TestEncodeTargetLargerBoxWins(t *testing.T) {
	rng := tensor.NewRNG(5)
	net := BuildNet(SmallConfig(), rng)
	// Two boxes with centers in the same cell.
	small := Box{X: 2, Y: 2, W: 8, H: 8, Class: TropicalCyclone}
	big := Box{X: 0, Y: 0, W: 14, H: 14, Class: AtmosphericRiver}
	hasBox, cls, _, _, _, _ := net.EncodeTarget([]Box{small, big})
	n := 0
	for i, hb := range hasBox {
		if hb {
			n++
			if cls[i] != int(AtmosphericRiver) {
				t.Fatal("larger box should own the cell")
			}
		}
	}
	if n != 1 {
		t.Fatalf("expected exactly 1 occupied cell, got %d", n)
	}
}

func TestDecodeRespectsConfidenceThreshold(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := BuildNet(SmallConfig(), rng)
	g := net.GridSize
	out := Output{
		Conf:  tensor.New(1, 1, g, g),
		Class: tensor.New(1, int(NumClasses), g, g),
		BoxP:  tensor.New(1, 4, g, g),
	}
	// All logits zero → sigmoid 0.5 < 0.8: nothing detected.
	if dets := net.Decode(out, 0, 0.8); len(dets) != 0 {
		t.Fatalf("decoded %d at conf 0.5", len(dets))
	}
	// Push one cell above threshold.
	out.Conf.Data[g+1] = 5 // cell (1,1): sigmoid(5) ≈ 0.993
	dets := net.Decode(out, 0, 0.8)
	if len(dets) != 1 {
		t.Fatalf("decoded %d, want 1", len(dets))
	}
	if dets[0].Confidence < 0.99 {
		t.Fatalf("confidence %v", dets[0].Confidence)
	}
}

func TestBuildNetValidation(t *testing.T) {
	rng := tensor.NewRNG(7)
	bad := SmallConfig()
	bad.DecChannels = []int{8, 8} // wrong count and wrong final channels
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BuildNet(bad, rng)
}

func TestNetGradientsFlowToAllComponents(t *testing.T) {
	rng := tensor.NewRNG(8)
	cfg := ModelConfig{
		Name: "t", Size: 16,
		EncChannels: []int{6, 8},
		EncStrides:  []int{2, 2},
		DecChannels: []int{8, NumChannels},
		WithDecoder: true,
	}
	net := BuildNet(cfg, rng)
	x := tensor.New(2, NumChannels, 16, 16)
	rng.FillNorm(x, 0, 1)
	boxes := [][]Box{
		{{X: 2, Y: 2, W: 6, H: 6, Class: TropicalCyclone}},
		{{X: 8, Y: 8, W: 5, H: 5, Class: AtmosphericRiver}},
	}
	net.ZeroGrad()
	parts := net.NewTrainPlan(2, nil).Step(x, boxes, nil, DefaultLossWeights())
	if parts.Total() <= 0 {
		t.Fatalf("loss parts %+v", parts)
	}
	for _, p := range net.Params() {
		if p.Grad.AbsMax() == 0 {
			t.Fatalf("no gradient reached %s", p.Name)
		}
	}
}

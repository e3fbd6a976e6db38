package hep

import (
	"deep15pf/internal/nn"
	"math"
	"testing"

	"deep15pf/internal/tensor"
)

func TestPaperNetMatchesTableII(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := BuildNet(PaperConfig(), rng)
	// Table II: 2.3 MiB of parameters. Exact count:
	// conv1 128·(3·9)+128 = 3,584; conv2..5 128·(128·9)+128 = 147,584 each;
	// fc 2·128+2 = 258 → 594,178 params = 2.27 MiB.
	if net.NumParams() != 594178 {
		t.Fatalf("paper net params = %d, want 594178", net.NumParams())
	}
	mib := float64(net.ParamBytes()) / (1 << 20)
	if math.Abs(mib-2.27) > 0.05 {
		t.Fatalf("param size %.2f MiB, Table II says 2.3 MiB", mib)
	}
	// 6 trainable layers → the paper's 6 parameter servers.
	if got := len(net.TrainableLayers()); got != 6 {
		t.Fatalf("trainable layers = %d, want 6 (paper used 6 PS nodes)", got)
	}
	// Output: 2 class logits.
	if out := net.OutShape(); len(out) != 1 || out[0] != 2 {
		t.Fatalf("OutShape = %v", out)
	}
}

func TestPaperNetPerLayerModelSize(t *testing.T) {
	// §VI-B2: "nodes need to synchronize and reduce a small model of
	// ∼590 KB" — the mid-network conv layers are 128·128·9·4 B ≈ 576 KiB.
	rng := tensor.NewRNG(2)
	net := BuildNet(PaperConfig(), rng)
	rows := net.FLOPBreakdown()
	var conv3Bytes int64
	for _, r := range rows {
		if r.Name == "conv3" {
			conv3Bytes = r.Bytes
		}
	}
	kb := float64(conv3Bytes) / 1000
	if kb < 560 || kb < 0 || kb > 620 {
		t.Fatalf("conv3 model = %.0f KB, paper says ~590 KB", kb)
	}
}

func TestPaperNetFLOPs(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := BuildNet(PaperConfig(), rng)
	f := net.FLOPsPerSample()
	// Dominated by conv2 (≈3.7 GF fwd); total fwd ≈ 5.3 GF, fwd+bwd ≈ 16 GF.
	gf := float64(f.Total()) / 1e9
	if gf < 14 || gf > 18 {
		t.Fatalf("per-sample flops %.1f GF, expected ~16 GF", gf)
	}
}

func TestSmallNetForwardShapes(t *testing.T) {
	rng := tensor.NewRNG(4)
	cfg := SmallConfig()
	net := BuildNet(cfg, rng)
	x := tensor.New(2, Channels, cfg.ImageSize, cfg.ImageSize)
	rng.FillNorm(x, 0, 1)
	y := nn.Compile(net, 2, false, nil).Forward(x)
	if y.Shape[0] != 2 || y.Shape[1] != 2 {
		t.Fatalf("logits shape %v", y.Shape)
	}
}

func TestBuildNetValidation(t *testing.T) {
	rng := tensor.NewRNG(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for undersized image")
		}
	}()
	BuildNet(ModelConfig{Name: "bad", ImageSize: 4, Filters: 8, ConvUnits: 5, Classes: 2}, rng)
}

func TestSignalScore(t *testing.T) {
	logits := tensor.FromSlice([]float32{0, 0, -10, 10}, 2, 2)
	s := SignalScore(logits)
	if math.Abs(s[0]-0.5) > 1e-6 {
		t.Fatalf("uniform logits score %v", s[0])
	}
	if s[1] < 0.999 {
		t.Fatalf("confident signal score %v", s[1])
	}
}

func TestSmallNetLearnsSyntheticHEP(t *testing.T) {
	// End-to-end sanity: a few SGD steps on a tiny sample must reduce the
	// training loss — the substrate for the Fig 8 and §VII-A experiments.
	if testing.Short() {
		t.Skip("training smoke test")
	}
	rng := tensor.NewRNG(6)
	cfg := DefaultGenConfig()
	r := NewRenderer(16)
	ds := GenerateDataset(cfg, r, 64, 0.5, rng)
	net := BuildNet(ModelConfig{Name: "t", ImageSize: 16, Filters: 8, ConvUnits: 3, Classes: 2}, rng)

	plan := nn.Compile(net, 64, true, nil)
	lossAt := func() float64 {
		x, labels := ds.Batch(seqIdx(64))
		l, _ := lossOf(plan.Forward(x), labels)
		return l
	}
	first := lossAt()
	lr := 0.05
	for it := 0; it < 30; it++ {
		x, labels := ds.Batch(seqIdx(64))
		net.ZeroGrad()
		_, grad := lossOf(plan.Forward(x), labels)
		plan.Backward(grad)
		for _, p := range net.Params() {
			for i := range p.W.Data {
				p.W.Data[i] -= float32(lr) * p.Grad.Data[i]
			}
		}
	}
	last := lossAt()
	if last >= first {
		t.Fatalf("training did not reduce loss: %.4f -> %.4f", first, last)
	}
}

func seqIdx(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

func lossOf(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	return nn.SoftmaxCrossEntropy(logits, labels)
}

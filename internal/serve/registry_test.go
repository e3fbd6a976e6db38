package serve

import (
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"deep15pf/internal/climate"
	"deep15pf/internal/hep"
	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

// climateTestConfig is a laptop-speed climate detector: two 2x-downsampling
// encoder convs (grid size/4) and a matching two-deconv decoder.
func climateTestConfig(size int) climate.ModelConfig {
	return climate.ModelConfig{
		Name:        "climate-tiny",
		Size:        size,
		EncChannels: []int{4, 6},
		EncStrides:  []int{2, 2},
		DecChannels: []int{4, climate.NumChannels},
		WithDecoder: true,
	}
}

func buildClimate(t *testing.T, cfg climate.ModelConfig, rng *tensor.RNG) *climate.Net {
	t.Helper()
	return climate.BuildNet(cfg, rng)
}

// tinyHEP is the micro architecture the serve tests train and serve.
func tinyHEP() hep.ModelConfig {
	return hep.ModelConfig{Name: "serve-test", ImageSize: 8, Filters: 4, ConvUnits: 2, Classes: 2}
}

// trainTinyHEP trains a fresh tiny classifier for a few plain-SGD steps so
// the checkpoint under test holds genuinely trained (not just initialised)
// weights, and returns the net with its training dataset.
func trainTinyHEP(t *testing.T, steps int) (*nn.Network, *hep.Dataset) {
	t.Helper()
	rng := tensor.NewRNG(11)
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(8), 64, 0.5, rng)
	net := hep.BuildNet(tinyHEP(), rng)
	idx := make([]int, 16)
	plan := nn.Compile(net, len(idx), true, nil)
	for step := 0; step < steps; step++ {
		for i := range idx {
			idx[i] = (step*len(idx) + i) % len(ds.Labels)
		}
		x, labels := ds.Batch(idx)
		net.ZeroGrad()
		logits := plan.Forward(x)
		grad := tensor.New(logits.Shape...)
		nn.SoftmaxCrossEntropyInto(logits, labels, grad)
		plan.Backward(grad)
		for _, p := range net.Params() {
			for j := range p.W.Data {
				p.W.Data[j] -= 0.01 * p.Grad.Data[j] / float32(len(idx))
			}
		}
	}
	return net, ds
}

// saveTinyHEP checkpoints net into a temp D15W file.
func saveTinyHEP(t *testing.T, net *nn.Network) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.d15w")
	if err := nn.SaveFile(path, net.Params()); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	return path
}

// TestRegistryCheckpointRoundTrip is the end-to-end weight fidelity check:
// a trained net's logits and the logits of a registry-loaded replica of its
// checkpoint must be bitwise identical.
func TestRegistryCheckpointRoundTrip(t *testing.T) {
	net, ds := trainTinyHEP(t, 8)
	path := saveTinyHEP(t, net)

	r := NewRegistry()
	RegisterHEP(r, "tiny", tinyHEP())
	lm, err := r.Load("tiny", path, Float32)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rep, err := lm.NewReplica()
	if err != nil {
		t.Fatalf("NewReplica: %v", err)
	}

	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	x, _ := ds.Batch(idx)
	want := nn.Compile(net, len(idx), false, nil).Forward(x.Clone())
	got := rep.Infer(x)
	if !slices.Equal(want.Shape, got.Shape) {
		t.Fatalf("logit shape %v, want %v", got.Shape, want.Shape)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("logit %d: served %v, direct %v — checkpoint round trip is not exact", i, got.Data[i], want.Data[i])
		}
	}

	// Replicas must be independent instances (workers run concurrently).
	rep2, err := lm.NewReplica()
	if err != nil {
		t.Fatalf("second NewReplica: %v", err)
	}
	if rep2 == rep {
		t.Fatal("NewReplica returned the same instance twice")
	}
	got2 := rep2.Infer(x)
	for i := range want.Data {
		if want.Data[i] != got2.Data[i] {
			t.Fatalf("second replica diverges at logit %d", i)
		}
	}
}

func TestRegistryRejectsMismatchedCheckpoint(t *testing.T) {
	net, _ := trainTinyHEP(t, 1)
	path := saveTinyHEP(t, net)

	r := NewRegistry()
	// Same topology, different width: parameter sizes disagree.
	RegisterHEP(r, "wider", hep.ModelConfig{Name: "wider", ImageSize: 8, Filters: 8, ConvUnits: 2, Classes: 2})
	if _, err := r.Load("wider", path, Float32); err == nil {
		t.Fatal("Load accepted a checkpoint from a different architecture")
	}
	if _, err := r.Load("absent", path, Float32); err == nil || !strings.Contains(err.Error(), "unknown architecture") {
		t.Fatalf("Load of unregistered arch: %v", err)
	}
}

// TestInt8ReplicaDeterminism: int8 replicas quantise deterministically
// (round-to-nearest weights, activation scales frozen by Calibrate), so
// every replica must produce identical logits — which worker handles a
// request must not change the response.
func TestInt8ReplicaDeterminism(t *testing.T) {
	net, ds := trainTinyHEP(t, 4)
	path := saveTinyHEP(t, net)
	r := NewRegistry()
	RegisterHEP(r, "tiny", tinyHEP())
	lm, err := r.Load("tiny", path, Int8)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	calX, _ := ds.Batch([]int{8, 9, 10, 11, 12, 13, 14, 15})
	if err := lm.Calibrate(calX); err != nil {
		t.Fatal(err)
	}
	a, err := lm.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	b, err := lm.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	x, _ := ds.Batch([]int{0, 1, 2, 3})
	ya, yb := a.Infer(x.Clone()), b.Infer(x.Clone())
	for i := range ya.Data {
		if math.Float32bits(ya.Data[i]) != math.Float32bits(yb.Data[i]) {
			t.Fatalf("int8 replicas disagree at logit %d: %v vs %v", i, ya.Data[i], yb.Data[i])
		}
	}
	// Quantised logits differ from the float checkpoint's but stay close.
	f32 := nn.Compile(net, 4, false, nil).Forward(x.Clone())
	var maxAbs float64
	for i := range f32.Data {
		maxAbs = max(maxAbs, math.Abs(float64(f32.Data[i]-ya.Data[i])))
	}
	if maxAbs > 1.0 {
		t.Fatalf("int8 logits stray %.3f from float32 — quantisation path is broken", maxAbs)
	}
}

// TestClimateServing covers the second architecture family: a climate
// checkpoint loads through the registry and serves packed head outputs of
// the documented shape, and gradient release leaves params intact.
func TestClimateServing(t *testing.T) {
	cfg := struct{ size, g int }{size: 16, g: 4}
	ccfg := climateTestConfig(cfg.size)
	rng := tensor.NewRNG(3)
	cn := buildClimate(t, ccfg, rng)
	path := filepath.Join(t.TempDir(), "climate.d15w")
	if err := nn.SaveFile(path, cn.Params()); err != nil {
		t.Fatal(err)
	}

	r := NewRegistry()
	RegisterClimate(r, "climate-tiny", ccfg)
	lm, err := r.Load("climate-tiny", path, Float32)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	rep, err := lm.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	wantOut := []int{climateOutChannels, cfg.g, cfg.g}
	if !sameShape(lm.OutShape(), wantOut) {
		t.Fatalf("OutShape %v, want %v", lm.OutShape(), wantOut)
	}
	x := tensor.New(2, lm.InShape()[0], cfg.size, cfg.size)
	tensor.NewRNG(4).FillNorm(x, 0, 1)
	y := rep.Infer(x)
	if !sameShape(y.Shape, append([]int{2}, wantOut...)) {
		t.Fatalf("served shape %v", y.Shape)
	}
	for _, p := range rep.Params() {
		if p.Grad != nil {
			t.Fatalf("replica %s still holds a gradient accumulator", p.Name)
		}
	}
	// Serving flops must exclude the decoder: strictly less than the full
	// net's forward cost, more than the encoder alone.
	enc := cn.Encoder.FLOPsPerSample().Fwd
	full := cn.FLOPsPerSample().Fwd
	if got := lm.FwdFLOPsPerSample(); got <= enc || got >= full {
		t.Fatalf("serving flops %d not in (encoder %d, full %d)", got, enc, full)
	}
}

// TestLoadWrongArchNamesOffendingParam is the regression gate for loading
// a checkpoint into a mismatched architecture: the registry must fail
// loudly at Load time with the first offending parameter's name in the
// error — never a silent misload or a shape panic later, in a worker, mid
// forward pass.
func TestLoadWrongArchNamesOffendingParam(t *testing.T) {
	// A checkpoint of the 8-filter variant of the same family: identical
	// parameter names and count, different tensor sizes — the nastiest
	// mismatch, because only per-blob validation can catch it.
	wide := tinyHEP()
	wide.Filters = 8
	net := hep.BuildNet(wide, tensor.NewRNG(3))
	path := saveTinyHEP(t, net)

	r := NewRegistry()
	RegisterHEP(r, "tiny", tinyHEP())
	_, err := r.Load("tiny", path, Float32)
	if err == nil {
		t.Fatal("checkpoint from a different architecture loaded silently")
	}
	if !strings.Contains(err.Error(), "conv") || !strings.Contains(err.Error(), "elements") {
		t.Errorf("error %q does not name the offending parameter", err)
	}
	if !strings.Contains(err.Error(), `"tiny"`) {
		t.Errorf("error %q does not name the target architecture", err)
	}

	// Different family entirely (climate): blob-count mismatch, still an
	// explicit load error.
	RegisterClimate(r, "clim", climateTestConfig(16))
	if _, err := r.Load("clim", path, Float32); err == nil {
		t.Fatal("cross-family checkpoint loaded silently")
	}
}

package serve

import (
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"deep15pf/internal/core"
	"deep15pf/internal/hep"
	"deep15pf/internal/nn"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

// TestQuantizedServingPath covers the int8 datapath end to end: loading at
// Int8 beside Float32, per-channel weight scales stored at Load,
// calibration freezing the activation scales, and int8 logits tracking fp32
// within the quantisation budget.
func TestQuantizedServingPath(t *testing.T) {
	net, ds := trainTinyHEP(t, 4)
	path := saveTinyHEP(t, net)
	r := NewRegistry()
	RegisterHEP(r, "tiny", tinyHEP())

	lm, err := r.Load("tiny", path, Float32)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Per-channel scales are captured at Load, before any int8 replica.
	ws := lm.WeightScales()
	if len(ws) == 0 {
		t.Fatal("Load stored no weight scales for a native-int8 architecture")
	}
	for name, s := range ws {
		for i, v := range s {
			if !(v > 0) {
				t.Fatalf("%s scale[%d] = %g", name, i, v)
			}
		}
	}

	x, _ := ds.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
	f32Rep, err := lm.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	want := f32Rep.Infer(x.Clone())

	// The same checkpoint at Int8 serves the integer datapath once
	// calibration has frozen its activation scales; served outputs stay in
	// budget and two replicas agree exactly.
	lm8, err := r.Load("tiny", path, Int8)
	if err != nil {
		t.Fatalf("Load int8: %v", err)
	}
	xa, _ := ds.Batch([]int{8, 9, 10, 11})
	if err := lm8.Calibrate(xa, x.Clone()); err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	ca, err := lm8.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := lm8.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := ca.Infer(x.Clone()), cb.Infer(x.Clone())
	requireClose(t, "calibrated int8", ga, want)
	for i := range ga.Data {
		if ga.Data[i] != gb.Data[i] {
			t.Fatalf("calibrated int8 replicas disagree at logit %d", i)
		}
	}

	// fp32 weights must survive untouched on the int8 path (the plan holds
	// the s8 copies).
	p8, p32 := ca.Params(), f32Rep.Params()
	for i := range p32 {
		for j := range p32[i].W.Data {
			if p8[i].W.Data[j] != p32[i].W.Data[j] {
				t.Fatalf("int8 replica mutated fp32 weight %s[%d]", p32[i].Name, j)
			}
		}
	}
}

// TestInt8ServesOnlyCalibrated: an Int8 model has one datapath, the
// calibrated plan, so until Calibrate has run it mints no serving replica —
// and a server over it does not start — with an error that says what to
// call. Afterwards both work.
func TestInt8ServesOnlyCalibrated(t *testing.T) {
	net, ds := trainTinyHEP(t, 2)
	r := NewRegistry()
	RegisterHEP(r, "tiny", tinyHEP())
	lm, err := r.Load("tiny", saveTinyHEP(t, net), Int8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lm.NewReplica(); err == nil || !strings.Contains(err.Error(), "Calibrate") {
		t.Fatalf("NewReplica on an uncalibrated int8 model: %v, want an error naming Calibrate", err)
	}
	if _, err := NewServer(lm, Config{MaxBatch: 4, Workers: 1}); err == nil || !strings.Contains(err.Error(), "Calibrate") {
		t.Fatalf("NewServer on an uncalibrated int8 model: %v, want an error naming Calibrate", err)
	}
	x, _ := ds.Batch([]int{0, 1, 2, 3})
	if err := lm.Calibrate(x); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(lm, Config{MaxBatch: 4, Workers: 1})
	if err != nil {
		t.Fatalf("NewServer after Calibrate: %v", err)
	}
	defer srv.Close()
	if _, err := srv.InferBatch(x); err != nil {
		t.Fatalf("InferBatch after Calibrate: %v", err)
	}
}

// requireClose bounds int8 logits to the fp32 reference: within 5% of the
// output range plus a small absolute floor (TestServedInt8AccuracyNearFP32
// gates the end-to-end accuracy delta; this catches gross datapath breakage).
func requireClose(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: size %d vs %d", name, got.Len(), want.Len())
	}
	var maxAbs float64
	for _, v := range want.Data {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	tol := 0.05*maxAbs + 1e-2
	for i := range want.Data {
		if d := math.Abs(float64(got.Data[i] - want.Data[i])); d > tol {
			t.Fatalf("%s: logit %d = %g vs fp32 %g (|Δ|=%g > %g)", name, i, got.Data[i], want.Data[i], d, tol)
		}
	}
}

// TestLoadRefusesInt8WithoutIntegerDatapath: the climate detector has no
// int8 datapath, so Load refuses it at Int8 and names the architecture; at
// Float32 it loads and serves, and Calibrate, having nothing to calibrate,
// refuses it too.
func TestLoadRefusesInt8WithoutIntegerDatapath(t *testing.T) {
	cn := buildClimate(t, climateTestConfig(16), tensor.NewRNG(3))
	path := filepath.Join(t.TempDir(), "climate.d15w")
	if err := nn.SaveFile(path, cn.Params()); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	RegisterClimate(r, "ctiny", climateTestConfig(16))
	if _, err := r.Load("ctiny", path, Int8); err == nil || !strings.Contains(err.Error(), `"ctiny"`) {
		t.Fatalf("Load of a climate checkpoint at Int8: %v, want an error naming the architecture", err)
	}
	lm, err := r.Load("ctiny", path, Float32)
	if err != nil {
		t.Fatalf("Load at Float32: %v", err)
	}
	x := tensor.New(append([]int{1}, lm.InShape()...)...)
	if err := lm.Calibrate(x); err == nil {
		t.Fatal("Calibrate succeeded on an architecture without an int8 datapath")
	}
}

// TestServedInt8AccuracyNearFP32 gates the accuracy cost of int8 serving,
// which is deterministic (seeded data, training and calibration): a trained
// classifier served at calibrated Int8 loses at most 0.01 accuracy on a
// held-out set against the same checkpoint served at Float32.
func TestServedInt8AccuracyNearFP32(t *testing.T) {
	cfg := hep.ModelConfig{Name: "acc", ImageSize: 16, Filters: 16, ConvUnits: 3, Classes: 2}
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(16), 256, 0.5, tensor.NewRNG(11))
	p := hep.NewTrainingProblem(ds, cfg, 77)
	res := core.TrainHybrid(p, core.Config{
		Groups: 1, WorkersPerGroup: 2, GroupBatch: 32, Iterations: 60,
		Solver: opt.NewAdam(2e-3), Seed: 9, Codec: "fp32",
	})
	path := saveTinyHEP(t, p.TrainedNet(res.FinalWeights))
	val := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(16), 256, 0.5, tensor.NewRNG(1234))
	r := NewRegistry()
	RegisterHEP(r, "acc", cfg)
	accuracy := func(prec Precision) float64 {
		lm, err := r.Load("acc", path, prec)
		if err != nil {
			t.Fatal(err)
		}
		if prec == Int8 {
			calX, _ := ds.Batch(seq(0, 64))
			if err := lm.Calibrate(calX); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := lm.NewReplica()
		if err != nil {
			t.Fatal(err)
		}
		var scores []float64
		for lo := 0; lo < len(val.Labels); lo += 64 {
			x, _ := val.Batch(seq(lo, lo+64))
			scores = append(scores, hep.SignalScore(rep.Infer(x))...)
		}
		correct := 0
		for i, s := range scores {
			if (s >= 0.5) == (val.Labels[i] == 1) {
				correct++
			}
		}
		return float64(correct) / float64(len(scores))
	}
	fp32, int8 := accuracy(Float32), accuracy(Int8)
	t.Logf("served accuracy: fp32 %.4f, int8 %.4f", fp32, int8)
	if fp32-int8 > 0.01 {
		t.Fatalf("int8 serving loses %.4f accuracy vs fp32, budget is 0.01", fp32-int8)
	}
}

// TestCalibrateLeavesNoScratch: calibration walks the net through the fp32
// kernels, and what those needed — the convolutions' lowering scratch, 4.5
// MB on hep-small at 64 samples — must be garbage when it returns, not
// pinned in an int8 replica whose quantized plans never read it. The
// statistics are the four conv input maxima and the classifier's, pinned
// from the commit that still calibrated through per-layer state.
func TestCalibrateLeavesNoScratch(t *testing.T) {
	cfg := hep.SmallConfig()
	path := saveTinyHEP(t, hep.BuildNet(cfg, tensor.NewRNG(5)))
	r := NewRegistry()
	RegisterHEP(r, "hep-small", cfg)
	lm, err := r.Load("hep-small", path, Int8)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(64, 3, cfg.ImageSize, cfg.ImageSize)
	tensor.NewRNG(6).FillNorm(x, 0, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := lm.Calibrate(x); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(x)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap grew %d bytes across Calibrate", grew)
	if grew > 256<<10 {
		t.Fatalf("live heap grew %d bytes across Calibrate, want < 256 KB", grew)
	}
	want := map[int]uint32{0: 0x40946102, 3: 0x410415a3, 6: 0x41203fa8, 9: 0x416c14bf, 12: 0x410a21a5}
	for i, v := range lm.calib {
		if math.Float32bits(v) != want[i] {
			t.Fatalf("calibration statistic %d = %#08x, want %#08x", i, math.Float32bits(v), want[i])
		}
	}
}

func seq(lo, hi int) []int {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return idx
}

package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"deep15pf/internal/tensor"
)

// TestQuantPlanMatchesFloat checks the calibrated int8 plan tracks the fp32
// plan within the quantisation error budget on a realistic little network.
func TestQuantPlanMatchesFloat(t *testing.T) {
	net := planTestNet(7)
	rng := tensor.NewRNG(13)
	x := randBatch(rng, 8, net.InShape)

	ref := Compile(net, 8, false, nil).Forward(x)
	calib := CalibrateActivations(net, x)
	calib = MergeCalibration(calib, CalibrateActivations(net, randBatch(rng, 4, net.InShape)))
	if calib[0] == 0 {
		t.Fatal("calibration recorded nothing for the first conv")
	}
	got := CompileQuantized(net, 8, calib, nil).Forward(x)
	if got.Len() != ref.Len() {
		t.Fatalf("output size %d, want %d", got.Len(), ref.Len())
	}
	var maxAbs float64
	for _, v := range ref.Data {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	// int8 conv stacks lose ~1% relative accuracy per layer; 10% of the
	// output range is a loose sanity bound — the real gate is the end-to-end
	// accuracy delta in serve.TestServedInt8AccuracyNearFP32.
	tol := 0.1*maxAbs + 1e-3
	for i := range ref.Data {
		if d := math.Abs(float64(got.Data[i] - ref.Data[i])); d > tol {
			t.Errorf("out[%d] = %g vs fp32 %g (|Δ|=%g > %g)", i, got.Data[i], ref.Data[i], d, tol)
		}
	}
}

// TestQuantPlanWarmNoAlloc is the 0-alloc gate for the int8 serving path.
func TestQuantPlanWarmNoAlloc(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	net := planTestNet(11)
	x := randBatch(tensor.NewRNG(3), 4, net.InShape)
	qp := CompileQuantized(net, 4, CalibrateActivations(net, x), nil)
	qp.Forward(x) // warm
	for _, workers := range gateWorkers {
		tensor.SetWorkers(workers)
		if allocs := testing.AllocsPerRun(10, func() { qp.Forward(x) }); allocs > 0 {
			t.Errorf("warm QuantPlan.Forward at %d workers allocates %v/run, want 0", workers, allocs)
		}
	}
}

// TestCompileQuantizedNeedsCalibration: there is one int8 datapath, the
// calibrated one. A plan without activation scales must refuse to compile,
// and say where the scales come from, in CompileQuantized and in the cache
// that calls it.
func TestCompileQuantizedNeedsCalibration(t *testing.T) {
	net := planTestNet(5)
	for name, compile := range map[string]func(){
		"CompileQuantized":  func() { CompileQuantized(net, 4, nil, nil) },
		"NewQuantPlanCache": func() { NewQuantPlanCache(net, nil, nil) },
	} {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "CalibrateActivations") {
					t.Errorf("%s without calibration recovered %v, want a panic naming CalibrateActivations", name, r)
				}
			}()
			compile()
		}()
	}
}

// TestQuantPlanRejectsForeignSampleShape: a batch of the right rank and
// size but another per-sample shape must panic in every plan, not run. The
// int8 plans used to check only rank and batch: a [2,3,64,64] batch into a
// [3,32,32] plan is eight samples' worth of floats, read as two, and came
// back as two rows of garbage logits.
func TestQuantPlanRejectsForeignSampleShape(t *testing.T) {
	net := hepSmallNet(tensor.NewRNG(3))
	calib := CalibrateActivations(net, randBatch(tensor.NewRNG(5), 2, net.InShape))
	x := randBatch(tensor.NewRNG(7), 2, []int{3, 64, 64})
	for _, tc := range []struct {
		name string
		p    lanePlan
	}{
		{"fp32", Compile(net, 2, false, nil)},
		{"int8 calibrated", CompileQuantized(net, 2, calib, nil)},
		{"int8 tiled", CompileQuantized(net, 2*inferTile, calib, nil)},
	} {
		func() {
			defer func() {
				if r := recover(); !strings.Contains(fmt.Sprint(r), "per-sample shape") {
					t.Errorf("%s: Forward of %v into a %v plan recovered %v, want a per-sample shape panic", tc.name, x.Shape, net.InShape, r)
				}
			}()
			tc.p.Forward(x)
		}()
	}
}

// TestQuantPlanInfStaysInItsSample: the online batcher puts different
// clients' requests in one batch. An infinity in one sample must cost that
// sample its own precision and nothing else: every logit of the batch is
// finite, and exactly what the largest finite float in the same slot gives
// (both saturate the byte on the frozen scale).
func TestQuantPlanInfStaysInItsSample(t *testing.T) {
	net := planTestNet(17)
	x := randBatch(tensor.NewRNG(23), 2, net.InShape)
	qp := CompileQuantized(net, 2, CalibrateActivations(net, x), nil)
	defer qp.Release()
	forward := func(v float32) []float32 {
		x.Data[5] = v
		return append([]float32(nil), qp.Forward(x).Data...)
	}
	withInf := forward(float32(math.Inf(1)))
	withMax := forward(math.MaxFloat32)
	for i, v := range withInf {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Errorf("+Inf in sample 0 made logit %d = %v", i, v)
		}
		if math.Float32bits(v) != math.Float32bits(withMax[i]) {
			t.Errorf("logit %d = %v with +Inf in sample 0, %v with MaxFloat32", i, v, withMax[i])
		}
	}
}

// TestQuantPlanCacheBuckets mirrors the fp32 plan-cache policy.
func TestQuantPlanCacheBuckets(t *testing.T) {
	net := planTestNet(5)
	rng := tensor.NewRNG(9)
	pc := NewQuantPlanCache(net, CalibrateActivations(net, randBatch(rng, 4, net.InShape)), nil)
	for _, n := range []int{1, 2, 3, 5, 8} {
		out := pc.Forward(randBatch(rng, n, net.InShape))
		if out.Shape[0] != n {
			t.Fatalf("batch %d: output batch %d", n, out.Shape[0])
		}
	}
	if len(pc.plans) != 4 { // buckets 1,2,4,8
		t.Errorf("cache holds %d plans, want 4", len(pc.plans))
	}
	pc.Release()
	if len(pc.plans) != 0 {
		t.Errorf("release left %d plans", len(pc.plans))
	}
}

func TestWeightScales(t *testing.T) {
	net := planTestNet(3)
	ws := WeightScales(net)
	for _, name := range []string{"c1.weight", "c2.weight", "fc.weight"} {
		if len(ws[name]) == 0 {
			t.Errorf("no scales recorded for %s", name)
		}
	}
	if len(ws["c1.weight"]) != 4 {
		t.Errorf("c1.weight has %d channel scales, want 4", len(ws["c1.weight"]))
	}
	for name, s := range ws {
		for i, v := range s {
			if !(v > 0) {
				t.Errorf("%s scale[%d] = %g, want > 0", name, i, v)
			}
		}
	}
}

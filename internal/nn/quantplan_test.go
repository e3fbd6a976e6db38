package nn

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"deep15pf/internal/quant"
	"deep15pf/internal/tensor"
)

// TestQuantPlanMatchesFloat checks the calibrated int8 plan tracks the fp32
// plan within the quantisation error budget on a realistic little network.
func TestQuantPlanMatchesFloat(t *testing.T) {
	net := planTestNet(7)
	rng := tensor.NewRNG(13)
	x := randBatch(rng, 8, net.InShape)

	ref := Compile(net, 8, false, nil).Forward(x)
	calib := CalibrateActivations(net, x, randBatch(rng, 4, net.InShape))
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
		{"int8 tiled", CompileQuantized(net, 2*InferTile, calib, nil)},
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

// requantThenPool is the epilogue the pooled one replaced, written out:
// requantize every pre-pool pixel of sample s to the consumer's bytes,
// then max-pool the bytes 2×2 at stride 2. It returns the pooled plane,
// channel-last at the consumer's pixel size.
func requantThenPool(q *qkernel, s int) []uint8 {
	c, ow, panel := q.next.c4, q.next.w, q.kh*q.k4*64
	pre, acc := make([]uint8, q.cols*c), make([]int32, q.ow*tensor.S8Lanes)
	for oy := 0; oy < q.oh; oy++ {
		for b := range q.blk {
			tensor.ConvS8(acc, q.xq[s*q.sampleStride+oy*q.stride*q.rowStride:], q.wq[b*panel:(b+1)*panel], q.kh, q.k4, q.rowStride, q.stride*q.c4)
			tensor.RequantU8(pre[oy*q.ow*c+b*tensor.S8Lanes:], acc, &q.blk[b], q.outInv, q.outLo, min(tensor.S8Lanes, c-b*tensor.S8Lanes), c)
		}
	}
	out := make([]uint8, q.next.h*ow*c)
	for i := range out {
		y, x, j := i/c/ow, i/c%ow, i%c
		at := func(dy, dx int) uint8 { return pre[((2*y+dy)*q.ow+2*x+dx)*c+j] }
		out[i] = max(at(0, 0), at(0, 1), at(1, 0), at(1, 1))
	}
	return out
}

// TestPooledEpilogueMatchesRequantThenPool holds each pooled link of the
// hep-small plan — conv1–3, each pooling into the next conv's bytes — to
// requantThenPool under every kernel table: the bytes the consumer reads
// must be the ones the deleted byte pool wrote, saturated inputs included.
func TestPooledEpilogueMatchesRequantThenPool(t *testing.T) {
	rng := tensor.NewRNG(61)
	net := hepSmallNet(rng)
	calib := CalibrateActivations(net, randBatch(rng, 4, net.InShape))
	x := randBatch(rng, 3, net.InShape)
	x.Data[0], x.Data[1] = 40, -40
	defer tensor.SetKernels("auto")
	for _, isa := range tensor.KernelISAs() {
		if err := tensor.SetKernels(isa); err != nil {
			t.Fatal(err)
		}
		qp := CompileQuantized(net, 3, calib, nil)
		qp.Forward(x)
		pooled := 0
		for i := range qp.steps {
			q := qp.steps[i].q
			if q == nil || !q.pool {
				continue
			}
			pooled++
			c := q.next.c4
			for s := 0; s < 3; s++ {
				want, img := requantThenPool(q, s), q.next.image(s)
				for k, v := range want {
					y, x := k/c/q.next.w, k/c%q.next.w
					if got := img[y*q.next.rowStride+x*c+k%c]; got != v {
						t.Fatalf("isa=%s step %d sample %d pixel (%d,%d) channel %d: byte %d, requantize-then-pool %d", isa, i, s, y, x, k%c, got, v)
					}
				}
			}
		}
		if pooled != 3 {
			t.Fatalf("isa=%s: %d pooled links in hep-small, want 3", isa, pooled)
		}
		qp.Release()
	}
}

// refCalibrate is the per-layer loop CalibrateActivations replaced: every
// layer run in turn by its own ForwardInto over the whole batch into a
// fresh tensor, each Conv2D's and Dense's input's largest magnitude
// recorded, batches merged by max.
func refCalibrate(net *Network, xs ...*tensor.Tensor) []float32 {
	stats := make([]float32, len(net.Layers))
	for _, x := range xs {
		var st PlanState
		cur := x
		for i, l := range net.Layers {
			switch l.(type) {
			case *Conv2D, *Dense:
				stats[i] = max(stats[i], quant.MaxAbs(cur.Data))
			}
			y := tensor.New(append([]int{cur.Shape[0]}, l.OutShape(cur.Shape[1:])...)...)
			l.ForwardInto(&st, y, cur, false)
			cur = y
		}
	}
	return stats
}

// TestCalibrateActivationsThroughAPlan: calibration runs its batches a
// tile at a time through one inference plan and reads each Conv2D's input
// out of its halo image, yet records what the per-layer loop records, bit
// for bit, under every kernel table — for hep-small over a 64-sample batch
// and a 20-sample one, a strided convolution, and specials in the input.
// Over 64 hep-small samples it allocates at most 1.5 MB (the per-layer
// loop: 15.4 MB), the plan's one slab and little more.
func TestCalibrateActivationsThroughAPlan(t *testing.T) {
	rng := tensor.NewRNG(41)
	hep := hepSmallNet(rng)
	strided := NewNetwork("strided", 3, 9, 11).Add(
		NewConv2D("c1", 3, 5, 3, 2, 1, rng), NewReLU("r1"),
		NewConv2D("c2", 5, 4, 3, 1, 1, rng), NewReLU("r2"), NewMaxPool2D("p2", 2, 2),
		NewDense("fc", 4*2*3, 3, rng))
	special := randBatch(rng, 40, strided.InShape)
	special.Data[3], special.Data[70], special.Data[500] = float32(math.Inf(-1)), float32(math.NaN()), -1e30
	cases := []struct {
		name string
		net  *Network
		xs   []*tensor.Tensor
	}{
		{"hep-small 64+20", hep, []*tensor.Tensor{randBatch(rng, 64, hep.InShape), randBatch(rng, 20, hep.InShape)}},
		{"strided 7", strided, []*tensor.Tensor{randBatch(rng, 7, strided.InShape)}},
		{"strided specials 40", strided, []*tensor.Tensor{special}},
	}
	defer tensor.SetKernels("auto")
	for _, isa := range tensor.KernelISAs() {
		if err := tensor.SetKernels(isa); err != nil {
			t.Fatal(err)
		}
		for _, c := range cases {
			want := refCalibrate(c.net, c.xs...)
			requireSameBits(t, c.name+" under "+isa, CalibrateActivations(c.net, c.xs...), want)
		}
	}
	x := cases[0].xs[0]
	got := uint64(math.MaxUint64)
	for range 3 { // the least: another goroutine's allocation only adds
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		CalibrateActivations(hep, x)
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("calibrating hep-small over 64 samples allocated %d bytes", got)
	if got > 1_500_000 {
		t.Fatalf("calibrating hep-small over 64 samples allocated %d bytes, want at most 1.5 MB", got)
	}
}

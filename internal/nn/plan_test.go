package nn

import (
	"strings"
	"testing"

	"deep15pf/internal/tensor"
)

// planTestNet builds a small net exercising every layer kind the HEP
// classifier uses: conv, relu, pool, global pool, dense.
func planTestNet(seed uint64) *Network {
	rng := tensor.NewRNG(seed)
	net := NewNetwork("plan-test", 3, 8, 8)
	net.Add(
		NewConv2D("c1", 3, 4, 3, 1, 1, rng),
		NewReLU("r1"),
		NewMaxPool2D("p1", 2, 2),
		NewConv2D("c2", 4, 5, 3, 1, 1, rng),
		NewReLU("r2"),
		NewGlobalAvgPool("gap"),
		NewDense("fc", 5, 2, rng),
	)
	return net
}

// planTestDeconvNet exercises the deconvolution path (the climate decoder
// shape: kernel 4, stride 2, pad 1 doubles the spatial size).
func planTestDeconvNet(seed uint64) *Network {
	rng := tensor.NewRNG(seed)
	net := NewNetwork("plan-test-deconv", 2, 6, 6)
	net.Add(
		NewConv2D("c1", 2, 3, 3, 1, 1, rng),
		NewReLU("r1"),
		NewDeconv2D("d1", 3, 2, 4, 2, 1, rng),
	)
	return net
}

func randBatch(rng *tensor.RNG, n int, shape []int) *tensor.Tensor {
	x := tensor.New(append([]int{n}, shape...)...)
	rng.FillNorm(x, 0, 1)
	return x
}

func requireBitwise(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: size %d vs %d", name, got.Len(), want.Len())
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: diverges at %d: %v vs %v", name, i, got.Data[i], want.Data[i])
		}
	}
}

// TestPlanInferenceBitwiseIdentity is the acceptance gate: a compiled
// inference plan must produce bitwise-identical outputs to the layers run
// one by one into fresh tensors (refNet), at every batch size one bucketed
// plan serves.
func TestPlanInferenceBitwiseIdentity(t *testing.T) {
	for _, build := range []func(uint64) *Network{planTestNet, planTestDeconvNet} {
		net := build(7)
		cache := NewPlanCache(net, false, nil)
		rng := tensor.NewRNG(99)
		for _, n := range []int{1, 2, 3, 5, 8} {
			x := randBatch(rng, n, net.InShape)
			want := newRef(net).Forward(x, false)
			got := cache.Forward(x)
			requireBitwise(t, net.NetName, got, want)
		}
		if cache.Len() != 4 { // buckets 1, 2, 4, 8
			t.Fatalf("%s: %d plans cached, want 4 (buckets 1,2,4,8)", net.NetName, cache.Len())
		}
	}
}

// TestPlanTrainingBitwiseIdentity checks the training side: logits, every
// parameter gradient and the input gradient must match refNet bitwise.
func TestPlanTrainingBitwiseIdentity(t *testing.T) {
	for _, build := range []func(uint64) *Network{planTestNet, planTestDeconvNet} {
		unplanned := build(3)
		planned := build(3)
		rng := tensor.NewRNG(17)
		x := randBatch(rng, 4, unplanned.InShape)
		dout := tensor.New(append([]int{4}, unplanned.OutShape()...)...)
		rng.FillNorm(dout, 0, 1)

		ref := newRef(unplanned)
		wantY := ref.Forward(x, true)
		wantDx := ref.Backward(dout)

		plan := Compile(planned, 4, true, nil)
		gotY := plan.Forward(x)
		requireBitwise(t, "logits", gotY, wantY)
		gotDx := plan.Backward(dout)
		requireBitwise(t, "input grad", gotDx, wantDx)

		lp, pp := unplanned.Params(), planned.Params()
		for i := range lp {
			requireBitwise(t, "grad "+lp[i].Name, pp[i].Grad, lp[i].Grad)
		}
	}
}

// TestPlanRepeatedPassesStayIdentical reruns a plan to prove recycled
// buffers cannot leak one pass's values into the next (the deterministic
// reset property).
func TestPlanRepeatedPassesStayIdentical(t *testing.T) {
	net := planTestNet(5)
	plan := Compile(net, 4, false, nil)
	rng := tensor.NewRNG(23)
	x := randBatch(rng, 4, net.InShape)
	first := plan.Forward(x).Clone()
	// Perturb with a different batch in between (different values and a
	// smaller size) before repeating the original input.
	y := randBatch(rng, 3, net.InShape)
	plan.Forward(y)
	requireBitwise(t, "repeat", plan.Forward(x), first)
}

// gateWorkers are the worker counts a warm-path allocation gate runs at.
// Below the tile nn forks nothing, and tensor only a GEMM of at least
// gemmParallelMin multiply-adds, which no gated shape reaches: the count
// must not show.
var gateWorkers = []int{1, 2, 4}

// TestPlanZeroSteadyStateAllocs is the allocation regression gate for the
// serving path: a warmed inference plan Forward must not allocate at all.
func TestPlanZeroSteadyStateAllocs(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	net := planTestNet(9)
	net.ReleaseGradients() // the serving configuration
	plan := Compile(net, 8, false, nil)
	rng := tensor.NewRNG(31)
	x := randBatch(rng, 8, net.InShape)
	plan.Forward(x) // warm
	for _, workers := range gateWorkers {
		tensor.SetWorkers(workers)
		if allocs := testing.AllocsPerRun(50, func() { plan.Forward(x) }); allocs != 0 {
			t.Fatalf("warmed inference plan Forward at %d workers allocates %v objects/op, want 0", workers, allocs)
		}
	}
}

// TestTrainingPlanZeroSteadyStateAllocs extends the gate to the training
// inner loop: forward + loss-gradient + backward with zero allocation.
func TestTrainingPlanZeroSteadyStateAllocs(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	net := planTestNet(13)
	plan := Compile(net, 4, true, nil)
	rng := tensor.NewRNG(37)
	x := randBatch(rng, 4, net.InShape)
	labels := []int{0, 1, 1, 0}
	grad := tensor.New(4, 2)
	iter := func() {
		logits := plan.Forward(x)
		SoftmaxCrossEntropyInto(logits, labels, grad)
		plan.Backward(grad)
		// The trainers' entry point, on the same forward's state.
		plan.BackwardParams(grad, nil)
	}
	iter() // warm
	for _, workers := range gateWorkers {
		tensor.SetWorkers(workers)
		if allocs := testing.AllocsPerRun(20, iter); allocs != 0 {
			t.Fatalf("warmed training iteration at %d workers allocates %v objects/op, want 0", workers, allocs)
		}
	}
}

// TestHepSmallTrainingStepZeroAllocs gates the training step the benchmark
// counts (nn.step_allocs): hep-small at batch 16, forward, loss gradient and
// BackwardParams. Every GEMM of the step is under gemmParallelMin and every
// other pass (max-pool among them) runs on the caller, so no worker count
// may add a fork.
func TestHepSmallTrainingStepZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	const n = 16
	net := hepSmallNet(tensor.NewRNG(71))
	plan := Compile(net, n, true, nil)
	rng := tensor.NewRNG(73)
	x := randBatch(rng, n, net.InShape)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 2
	}
	grad := tensor.New(n, 2)
	iter := func() {
		SoftmaxCrossEntropyInto(plan.Forward(x), labels, grad)
		plan.BackwardParams(grad, nil)
	}
	iter() // warm
	for _, workers := range gateWorkers {
		tensor.SetWorkers(workers)
		if allocs := testing.AllocsPerRun(10, iter); allocs != 0 {
			t.Fatalf("warm hep-small batch-%d training step at %d workers allocates %v objects/op, want 0", n, workers, allocs)
		}
	}
}

// TestInferencePlanRunsOnReleasedNetwork pins the ReleaseGradients fix: a
// released network must still compile and run inference plans...
func TestInferencePlanRunsOnReleasedNetwork(t *testing.T) {
	net := planTestNet(19)
	rng := tensor.NewRNG(41)
	x := randBatch(rng, 2, net.InShape)
	want := newRef(net).Forward(x, false)
	net.ReleaseGradients()
	plan := Compile(net, 2, false, nil)
	requireBitwise(t, "released-net inference", plan.Forward(x), want)
}

// ...while compiling a training plan over it must fail loudly at compile
// time, naming the released parameter.
func TestTrainingPlanPanicsOnReleasedNetwork(t *testing.T) {
	net := planTestNet(19)
	net.ReleaseGradients()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("training-plan compile over released gradients must panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "released gradients") {
			t.Fatalf("unhelpful panic: %v", r)
		}
	}()
	Compile(net, 2, true, nil)
}

// TestTrainingPlanPanicsOnMidFlightRelease covers the nastier ordering:
// gradients released after the plan compiled. Backward must name the
// parameter instead of nil-dereferencing inside a kernel.
func TestTrainingPlanPanicsOnMidFlightRelease(t *testing.T) {
	net := planTestNet(19)
	plan := Compile(net, 2, true, nil)
	rng := tensor.NewRNG(43)
	x := randBatch(rng, 2, net.InShape)
	dout := tensor.New(append([]int{2}, net.OutShape()...)...)
	plan.Forward(x)
	net.ReleaseGradients()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("plan Backward after ReleaseGradients must panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "released") {
			t.Fatalf("unhelpful panic: %v", r)
		}
	}()
	plan.Backward(dout)
}

// TestPlanStateIsolatedFromDirectCalls interleaves plan-based training with
// direct layer calls on the same network under other states — an eval pass,
// and a train-mode pass over a different batch: neither may clobber the
// plan's backward state (the property PlanState exists to provide).
func TestPlanStateIsolatedFromDirectCalls(t *testing.T) {
	alone := planTestNet(21)
	mixed := planTestNet(21)
	rng := tensor.NewRNG(47)
	x := randBatch(rng, 2, alone.InShape)
	dout := tensor.New(2, 2)
	rng.FillNorm(dout, 0, 1)

	ref := newRef(alone)
	ref.Forward(x, true)
	wantDx := ref.Backward(dout)

	plan := Compile(mixed, 2, true, nil)
	plan.Forward(x)
	direct := newRef(mixed) // between plan forward and backward
	direct.Forward(x, false)
	direct.Forward(randBatch(rng, 3, mixed.InShape), true)
	requireBitwise(t, "isolated dx", plan.Backward(dout), wantDx)
	lp, mp := alone.Params(), mixed.Params()
	for i := range lp {
		requireBitwise(t, "isolated grad "+lp[i].Name, mp[i].Grad, lp[i].Grad)
	}
}

// TestPlanArenaSharing verifies released plan slabs are recycled by the
// next compile on the same arena rather than re-allocated.
func TestPlanArenaSharing(t *testing.T) {
	net := planTestNet(25)
	arena := tensor.NewArena()
	p1 := Compile(net, 4, false, arena)
	total1 := arena.Stats().TotalFloats
	p1.Release()
	p2 := Compile(net, 4, false, arena)
	if total2 := arena.Stats().TotalFloats; total2 != total1 {
		t.Fatalf("recompile on shared arena grew footprint %d -> %d", total1, total2)
	}
	p2.Release()
}

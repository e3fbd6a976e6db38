package deep15pf_test

// One benchmark per table and figure of the paper, plus kernel
// micro-benchmarks. Figure-level benchmarks wrap the harness generators in
// quick mode (each iteration regenerates the full experiment); kernel
// benchmarks measure the substrate the way DeepBench measures MKL/cuDNN.
// These are for looking at one thing while working on it; the yardstick a
// change is judged by is benchmark/ (go run ./benchmark).
//
// Regenerate everything textually with: go run ./cmd/repro

import (
	"path/filepath"
	"testing"

	"deep15pf/internal/cluster"
	"deep15pf/internal/harness"
	"deep15pf/internal/hep"
	"deep15pf/internal/nn"
	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

func benchOpts() harness.Options { return harness.Options{Quick: true, Seed: 42} }

// ---- Tables and figures ----

func BenchmarkTable1DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.Table1(benchOpts())
	}
}

func BenchmarkTable2ArchSpecs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.Table2(benchOpts())
	}
}

func BenchmarkFig5SingleNodeBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.Fig5(benchOpts())
	}
}

func BenchmarkFig6StrongScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.Fig6(benchOpts())
	}
}

func BenchmarkFig7WeakScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.Fig7(benchOpts())
	}
}

func BenchmarkFullSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.FullSystem(benchOpts())
	}
}

func BenchmarkFig8TimeToTrain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.Fig8(benchOpts())
	}
}

func BenchmarkHEPScience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.HEPScience(benchOpts())
	}
}

func BenchmarkClimateScience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.ClimateScience(benchOpts())
	}
}

func BenchmarkResilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.Resilience(benchOpts())
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = harness.Ablations(benchOpts())
	}
}

// ---- Kernel micro-benchmarks (DeepBench-style, §II-A) ----

func BenchmarkGemmSquare256(b *testing.B) {
	rng := tensor.NewRNG(1)
	n := 256
	x := make([]float32, n*n)
	y := make([]float32, n*n)
	c := make([]float32, n*n)
	for i := range x {
		x[i] = float32(rng.Norm())
		y[i] = float32(rng.Norm())
	}
	b.SetBytes(int64(3 * n * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Gemm(false, false, n, n, n, 1, x, y, 0, c)
	}
	b.ReportMetric(float64(tensor.GemmFLOPs(n, n, n))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkGemmTallSkinny mirrors the deep-learning GEMM shape the paper's
// §II-A highlights: conv2 of the HEP network lowered by im2col at batch 1
// (M=128 filters, K=1152, N=spatial).
func BenchmarkGemmTallSkinny(b *testing.B) {
	rng := tensor.NewRNG(2)
	m, k, n := 128, 1152, 784
	w := make([]float32, m*k)
	col := make([]float32, k*n)
	out := make([]float32, m*n)
	for i := range w {
		w[i] = float32(rng.Norm())
	}
	for i := range col {
		col[i] = float32(rng.Norm())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Gemm(false, false, m, n, k, 1, w, col, 0, out)
	}
	b.ReportMetric(float64(tensor.GemmFLOPs(m, n, k))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkHEPConvLayer measures one mid-network HEP convolution
// (128→128 3x3 on 28x28), the layer family that dominates Fig 5a.
func BenchmarkHEPConvLayer(b *testing.B) {
	rng := tensor.NewRNG(3)
	conv := nn.NewConv2D("conv4", 128, 128, 3, 1, 1, rng)
	plan := nn.Compile(nn.NewNetwork("conv4", 128, 28, 28).Add(conv), 1, false, nil)
	x := tensor.New(1, 128, 28, 28)
	rng.FillNorm(x, 0, 1)
	flops := conv.FLOPs([]int{128, 28, 28})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Forward(x)
	}
	b.ReportMetric(float64(flops.Fwd)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkHEPForwardBackward measures a full training step of the scaled
// HEP network (the unit of Fig 5a's iteration time).
func BenchmarkHEPForwardBackward(b *testing.B) {
	rng := tensor.NewRNG(4)
	cfg := hep.ModelConfig{Name: "bench", ImageSize: 32, Filters: 16, ConvUnits: 4, Classes: 2}
	net := hep.BuildNet(cfg, rng)
	plan := nn.Compile(net, 4, true, nil)
	x := tensor.New(4, 3, 32, 32)
	rng.FillNorm(x, 0, 1)
	labels := []int{0, 1, 0, 1}
	grad := tensor.New(4, 2)
	flops := net.FLOPsPerSample().Total() * 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrad()
		nn.SoftmaxCrossEntropyInto(plan.Forward(x), labels, grad)
		plan.Backward(grad)
	}
	b.ReportMetric(float64(flops)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// ---- Serving (internal/serve) ----

// benchServeThroughput drives b.N closed-loop requests through a serving
// stack at the given max batch size, reporting requests/second and p99
// end-to-end latency — the serving perf trajectory future PRs are measured
// against (cmd/deepserve runs the same study interactively).
func benchServeThroughput(b *testing.B, maxBatch int) {
	cfg := hep.ModelConfig{Name: "bench-serve", ImageSize: 4, Filters: 16, ConvUnits: 2, Classes: 2}
	rng := tensor.NewRNG(7)
	net := hep.BuildNet(cfg, rng)
	path := filepath.Join(b.TempDir(), "bench.d15w")
	if err := nn.SaveFile(path, net.Params()); err != nil {
		b.Fatal(err)
	}
	reg := serve.NewRegistry()
	serve.RegisterHEP(reg, "bench-serve", cfg)
	lm, err := reg.Load("bench-serve", path, serve.Float32)
	if err != nil {
		b.Fatal(err)
	}
	s, err := serve.NewServer(lm, serve.Config{MaxBatch: maxBatch})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	inputs := make([]*serve.LoadInput, 64)
	for i := range inputs {
		x := tensor.New(3, cfg.ImageSize, cfg.ImageSize)
		rng.FillNorm(x, 0, 1)
		inputs[i] = &serve.LoadInput{X: x}
	}
	clients := 2 * maxBatch
	if clients < 8 {
		clients = 8
	}
	b.ResetTimer()
	res := serve.RunClosedLoop(s, inputs, clients, b.N)
	if res.Err != nil {
		b.Fatal(res.Err)
	}
	st := s.Stats()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(st.P99.Microseconds())/1000, "p99-ms")
}

func BenchmarkServeThroughputBatch1(b *testing.B)  { benchServeThroughput(b, 1) }
func BenchmarkServeThroughputBatch8(b *testing.B)  { benchServeThroughput(b, 8) }
func BenchmarkServeThroughputBatch32(b *testing.B) { benchServeThroughput(b, 32) }

// BenchmarkClusterSimIteration measures the discrete-event simulator's own
// cost per simulated training iteration at full machine scale.
func BenchmarkClusterSimIteration(b *testing.B) {
	m := cluster.CoriPhaseII()
	p := cluster.HEPProfile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.Simulate(m, p, cluster.RunConfig{
			Nodes: 9594, Groups: 9, BatchPerGroup: 1066, Iterations: 10, Seed: uint64(i),
		})
	}
}

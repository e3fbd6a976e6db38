package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"deep15pf/internal/tensor"
)

func TestCoriPeakMatchesPaperSectionIV(t *testing.T) {
	m := CoriPhaseII()
	// §IV: one node at nominal clock with all 68 cores gives
	// 68·1.4 GHz·64 = 6.09 TF; machine-wide 59 PF over 9688 nodes. We run
	// 66 cores (2 reserved for the OS), so per-node nominal peak is
	// 66·1.4·64 = 5.91 TF and sustained (1.2 GHz) is 5.07 TF.
	if got := m.PeakFlops() / 1e12; math.Abs(got-5.9136) > 1e-9 {
		t.Fatalf("peak = %v TF", got)
	}
	if got := m.SustainedPeakFlops() / 1e12; math.Abs(got-5.0688) > 1e-9 {
		t.Fatalf("sustained peak = %v TF", got)
	}
	// Full-machine sustained peak with all cores ≈ 50.6 PF (paper §IV).
	allCores := m
	allCores.Cores = 68
	machine := allCores.SustainedPeakFlops() * 9688 / 1e15
	if math.Abs(machine-50.6) > 0.5 {
		t.Fatalf("machine sustained peak %.1f PF, paper says 50.6 PF", machine)
	}
}

func TestEffCurveMonotone(t *testing.T) {
	e := EffCurve{Max: 0.43, Knee: 3.71, Pow: 2.4}
	prev := 0.0
	for _, b := range []float64{0.5, 1, 2, 4, 8, 64, 4096} {
		v := e.At(b)
		if v <= prev {
			t.Fatalf("efficiency must increase with batch: eff(%v)=%v after %v", b, v, prev)
		}
		prev = v
	}
	if e.At(0) != 0 || e.At(-3) != 0 {
		t.Fatal("non-positive batch must give zero efficiency")
	}
	if e.At(1e9) > e.Max {
		t.Fatal("efficiency must saturate at Max")
	}
}

func TestSingleNodeRatesMatchFig5(t *testing.T) {
	// Fig 5 anchors: HEP 1.90 TF/s and climate 2.09 TF/s at batch 8.
	m := CoriPhaseII()
	hep := HEPProfile()
	clim := ClimateProfile()
	if got := hep.NodeFlopRate(m, 8) / 1e12; math.Abs(got-1.90) > 0.07 {
		t.Fatalf("HEP batch-8 rate %.3f TF/s, paper says 1.90", got)
	}
	if got := clim.NodeFlopRate(m, 8) / 1e12; math.Abs(got-2.09) > 0.07 {
		t.Fatalf("climate batch-8 rate %.3f TF/s, paper says 2.09", got)
	}
}

func TestProfilesDeriveFromRealNets(t *testing.T) {
	hep := HEPProfile()
	if hep.NumTrainableLayers() != 6 {
		t.Fatalf("HEP trainable layers = %d, want 6 (paper used 6 PS)", hep.NumTrainableLayers())
	}
	if mib := float64(hep.TotalModelBytes) / (1 << 20); math.Abs(mib-2.27) > 0.1 {
		t.Fatalf("HEP model %.2f MiB, Table II says 2.3", mib)
	}
	if gf := hep.FlopsPerSample / 1e9; gf < 14 || gf > 18 {
		t.Fatalf("HEP flops %.1f GF/sample", gf)
	}
	clim := ClimateProfile()
	if clim.NumTrainableLayers() != 14 {
		t.Fatalf("climate trainable layers = %d, want 14 (paper used 14 PS)", clim.NumTrainableLayers())
	}
	if mib := float64(clim.TotalModelBytes) / (1 << 20); math.Abs(mib-302.1) > 5 {
		t.Fatalf("climate model %.1f MiB, Table II says 302.1", mib)
	}
	if hep.ExecPerSample < hep.FlopsPerSample || clim.ExecPerSample < clim.FlopsPerSample {
		t.Fatal("executed flops must dominate algorithmic")
	}
}

func TestHEPConvLayerTimeMatchesPaper(t *testing.T) {
	// §VI-B2: "An average convolution layer in HEP takes about 12 ms" (at
	// the weak-scaling batch of 8/node). Our batch-8 iteration spends its
	// time across 5 conv layers plus the rest: per-conv ≈ iter/5.5.
	m := CoriPhaseII()
	hep := HEPProfile()
	iter := hep.ComputeTime(m, 8)
	perConv := iter / 5.5
	if perConv < 0.008 || perConv > 0.018 {
		t.Fatalf("per-conv time %.1f ms, paper says ~12 ms", perConv*1e3)
	}
}

func TestProbitAccuracy(t *testing.T) {
	cases := map[float64]float64{
		0.5:       0,
		0.8413447: 1, // Φ(1)
		0.9772499: 2, // Φ(2)
		0.0227501: -2,
		0.999:     3.0902,
		0.001:     -3.0902,
	}
	for p, want := range cases {
		if got := Probit(p); math.Abs(got-want) > 1e-3 {
			t.Fatalf("Probit(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsInf(Probit(0), -1) || !math.IsInf(Probit(1), 1) {
		t.Fatal("boundary behaviour")
	}
}

// Property: Probit is the inverse of the normal CDF — Φ(Probit(p)) ≈ p.
func TestProbitInverseProperty(t *testing.T) {
	phi := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	f := func(raw uint16) bool {
		p := (float64(raw) + 0.5) / 65536
		return math.Abs(phi(Probit(p))-p) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxLogNormalGrowsWithN(t *testing.T) {
	rng := tensor.NewRNG(1)
	avg := func(n int) float64 {
		var s float64
		for i := 0; i < 3000; i++ {
			s += maxLogNormal(rng, n, 0.04)
		}
		return s / 3000
	}
	a1, a256, a9600 := avg(1), avg(256), avg(9600)
	if !(a1 < a256 && a256 < a9600) {
		t.Fatalf("straggler factor must grow with domain: %v %v %v", a1, a256, a9600)
	}
	// σ=0.04 at n=9600: E[max] ≈ exp(0.04·3.7) ≈ 1.16 — the scale of the
	// paper's observed variability.
	if a9600 < 1.10 || a9600 > 1.30 {
		t.Fatalf("max straggler at 9600 nodes = %v, expected ~1.16", a9600)
	}
	if maxLogNormal(rng, 100, 0) != 1 {
		t.Fatal("zero sigma must be deterministic 1")
	}
}

func TestAllReduceTimeBehaviour(t *testing.T) {
	m := CoriPhaseII()
	rng := tensor.NewRNG(2)
	if m.AllReduceTime(rng, 1, 1<<20) != 0 {
		t.Fatal("single node needs no allreduce")
	}
	avg := func(n int, bytes int64) float64 {
		var s float64
		for i := 0; i < 200; i++ {
			s += m.AllReduceTime(rng, n, bytes)
		}
		return s / 200
	}
	small := avg(64, 600<<10)
	large := avg(2048, 600<<10)
	if large <= small {
		t.Fatalf("allreduce must slow with node count: %v vs %v", small, large)
	}
	thin := avg(256, 1<<10)
	fat := avg(256, 300<<20)
	if fat <= thin {
		t.Fatalf("allreduce must slow with message size: %v vs %v", thin, fat)
	}
	// 302 MiB over 2048 nodes is bandwidth-bound: ≥ 2·M/B ≈ 34 ms.
	if v := avg(2048, 302<<20); v < 0.030 {
		t.Fatalf("climate-model allreduce %v s unrealistically fast", v)
	}
}

func TestPSServiceTime(t *testing.T) {
	m := CoriPhaseII()
	small := m.PSServiceTimeAsym(1<<10, 1<<10)
	big := m.PSServiceTimeAsym(300<<20, 300<<20)
	if small >= big {
		t.Fatal("service must grow with payload")
	}
	if small < m.PSOverhead {
		t.Fatal("fixed overhead must apply")
	}
}

func TestEndpointAblationSlowsComm(t *testing.T) {
	// MLSL endpoints (§III-D) improve effective bandwidth; disabling them
	// must slow bandwidth-bound collectives.
	with := CoriPhaseII()
	without := CoriPhaseII()
	without.EndpointFactor = 1.0
	r1 := tensor.NewRNG(3)
	r2 := tensor.NewRNG(3)
	var sumWith, sumWithout float64
	for i := 0; i < 100; i++ {
		sumWith += with.AllReduceTime(r1, 512, 302<<20)
		sumWithout += without.AllReduceTime(r2, 512, 302<<20)
	}
	if sumWithout <= sumWith {
		t.Fatalf("endpoints off should be slower: %v vs %v", sumWithout, sumWith)
	}
}

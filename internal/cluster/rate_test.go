package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"deep15pf/internal/tensor"
)

// runMean is the whole-run rate, total work over total time: the reference
// the sustained rate meets when its window is the run.
func runMean(durations []float64, workPerIter float64) float64 {
	var total float64
	for _, d := range durations {
		total += d
	}
	return workPerIter * float64(len(durations)) / total
}

func TestPeakRateUsesFastestIteration(t *testing.T) {
	// §V: "The peak flop rate is obtained from the fastest iteration."
	d := []float64{2, 1, 4}
	if got := peakRate(d, 10); got != 10 {
		t.Fatalf("peak = %v, want 10", got)
	}
}

func TestSustainedRateBestWindow(t *testing.T) {
	// Durations 4,1,1,4: best window of 2 is [1,1] → rate = 2·w/2 = w.
	d := []float64{4, 1, 1, 4}
	if got := sustainedRate(d, 3, 2); got != 3 {
		t.Fatalf("sustained = %v, want 3", got)
	}
}

func TestSustainedWindowClamps(t *testing.T) {
	d := []float64{1, 1}
	if got := sustainedRate(d, 2, 100); got != 2 {
		t.Fatalf("clamped window = %v", got)
	}
	if got := sustainedRate(d, 2, 0); got != 2 {
		t.Fatalf("zero window = %v", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if peakRate(nil, 1) != 0 || sustainedRate(nil, 1, 5) != 0 {
		t.Fatal("empty inputs must be 0")
	}
}

// Property: peak ≥ sustained and peak ≥ mean for any positive durations —
// the §V ordering that makes the paper's 15.07 peak vs 13.27 sustained
// sensible. (Sustained vs mean has no fixed order: the best window may
// legitimately be slower than the full-run average when slow iterations
// cluster at the boundaries.)
func TestRateOrderingProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rng := tensor.NewRNG(uint64(seed) + 7)
		n := 3 + rng.Intn(40)
		d := make([]float64, n)
		for i := range d {
			d[i] = 0.1 + rng.Float64()
		}
		peak := peakRate(d, 5)
		return peak >= sustainedRate(d, 5, 1+rng.Intn(n))-1e-12 && peak >= runMean(d, 5)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a window of size 1 makes sustained equal peak.
func TestSustainedWindowOneEqualsPeak(t *testing.T) {
	f := func(seed uint32) bool {
		rng := tensor.NewRNG(uint64(seed) + 13)
		n := 1 + rng.Intn(20)
		d := make([]float64, n)
		for i := range d {
			d[i] = 0.1 + rng.Float64()
		}
		return math.Abs(sustainedRate(d, 3, 1)-peakRate(d, 3)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSustainedEqualsMeanForUniform(t *testing.T) {
	d := []float64{2, 2, 2, 2}
	peak, sustained, mean := peakRate(d, 4), sustainedRate(d, 4, 2), runMean(d, 4)
	if math.Abs(sustained-mean) > 1e-12 || math.Abs(peak-mean) > 1e-12 {
		t.Fatalf("uniform durations: peak %v sustained %v mean %v", peak, sustained, mean)
	}
}

// The §V rate functions divide by measured wall-clock sums; these tests
// pin the window edges (w == n, w == 1, w < 0) and the degenerate
// timings (zero and negative durations from clock skew) to "return 0,
// never Inf/NaN".

func TestSustainedWindowEqualsRunIsMean(t *testing.T) {
	d := []float64{3, 1, 2, 4}
	if got, want := sustainedRate(d, 5, len(d)), runMean(d, 5); got != want {
		t.Fatalf("w==n sustained = %v, want mean %v", got, want)
	}
}

func TestSustainedWindowOneExact(t *testing.T) {
	d := []float64{2, 0.5, 4}
	if got := sustainedRate(d, 3, 1); got != 6 {
		t.Fatalf("w==1 sustained = %v, want 6 (fastest iteration)", got)
	}
}

func TestNegativeWindowClampsToRun(t *testing.T) {
	d := []float64{1, 3}
	if got, want := sustainedRate(d, 4, -2), runMean(d, 4); got != want {
		t.Fatalf("negative window = %v, want mean %v", got, want)
	}
}

func TestZeroDurationsNeverDivideByZero(t *testing.T) {
	allZero := []float64{0, 0, 0}
	if peakRate(allZero, 5) != 0 || sustainedRate(allZero, 5, 2) != 0 {
		t.Fatal("all-zero durations must report 0, not Inf")
	}
	// One zero iteration: the peak would divide by it; the guard returns 0
	// rather than claiming infinite throughput.
	withZero := []float64{1, 0, 2}
	if got := peakRate(withZero, 5); got != 0 {
		t.Fatalf("peak over a zero duration = %v, want 0", got)
	}
	// A zero iteration inside a window whose sum stays positive still
	// yields a finite rate: windows [1,1]=2 and [1,0]=1, best 1 → 2·2/1.
	if got := sustainedRate([]float64{1, 1, 0}, 2, 2); got != 4 {
		t.Fatalf("sustained = %v, want 4", got)
	}
}

func TestNegativeDurationsReportZero(t *testing.T) {
	// A clock step can hand back a negative elapsed time; no rate function
	// may launder it into a negative or infinite rate.
	neg := []float64{1, -2, 3}
	for name, got := range map[string]float64{
		"peak":      peakRate(neg, 5),
		"sustained": sustainedRate(neg, 5, 2),
	} {
		if got != 0 {
			t.Errorf("%s over negative duration = %v, want 0", name, got)
		}
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("%s = %v, must be finite", name, got)
		}
	}
}

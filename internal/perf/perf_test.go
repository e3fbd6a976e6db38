package perf

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
	if got := PeakRate(d, 10); got != 10 {
		t.Fatalf("peak = %v, want 10", got)
	}
}

func TestSustainedRateBestWindow(t *testing.T) {
	// Durations 4,1,1,4: best window of 2 is [1,1] → rate = 2·w/2 = w.
	d := []float64{4, 1, 1, 4}
	if got := SustainedRate(d, 3, 2); got != 3 {
		t.Fatalf("sustained = %v, want 3", got)
	}
}

func TestSustainedWindowClamps(t *testing.T) {
	d := []float64{1, 1}
	if got := SustainedRate(d, 2, 100); got != 2 {
		t.Fatalf("clamped window = %v", got)
	}
	if got := SustainedRate(d, 2, 0); got != 2 {
		t.Fatalf("zero window = %v", got)
	}
}

func TestEmptyInputs(t *testing.T) {
	if PeakRate(nil, 1) != 0 || SustainedRate(nil, 1, 5) != 0 {
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
		peak := PeakRate(d, 5)
		return peak >= SustainedRate(d, 5, 1+rng.Intn(n))-1e-12 && peak >= runMean(d, 5)-1e-12
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
		return math.Abs(SustainedRate(d, 3, 1)-PeakRate(d, 3)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSustainedEqualsMeanForUniform(t *testing.T) {
	d := []float64{2, 2, 2, 2}
	peak, sustained, mean := PeakRate(d, 4), SustainedRate(d, 4, 2), runMean(d, 4)
	if math.Abs(sustained-mean) > 1e-12 || math.Abs(peak-mean) > 1e-12 {
		t.Fatalf("uniform durations: peak %v sustained %v mean %v", peak, sustained, mean)
	}
}

package perf

import (
	"math"
	"testing"
)

// The §V rate functions divide by measured wall-clock sums; these tests
// pin the window edges (w == n, w == 1, w < 0) and the degenerate
// timings (zero and negative durations from clock skew) to "return 0,
// never Inf/NaN".

func TestSustainedWindowEqualsRunIsMean(t *testing.T) {
	d := []float64{3, 1, 2, 4}
	if got, want := SustainedRate(d, 5, len(d)), runMean(d, 5); got != want {
		t.Fatalf("w==n sustained = %v, want mean %v", got, want)
	}
}

func TestSustainedWindowOneExact(t *testing.T) {
	d := []float64{2, 0.5, 4}
	if got := SustainedRate(d, 3, 1); got != 6 {
		t.Fatalf("w==1 sustained = %v, want 6 (fastest iteration)", got)
	}
}

func TestNegativeWindowClampsToRun(t *testing.T) {
	d := []float64{1, 3}
	if got, want := SustainedRate(d, 4, -2), runMean(d, 4); got != want {
		t.Fatalf("negative window = %v, want mean %v", got, want)
	}
}

func TestZeroDurationsNeverDivideByZero(t *testing.T) {
	allZero := []float64{0, 0, 0}
	if PeakRate(allZero, 5) != 0 || SustainedRate(allZero, 5, 2) != 0 {
		t.Fatal("all-zero durations must report 0, not Inf")
	}
	// One zero iteration: the peak would divide by it; the guard returns 0
	// rather than claiming infinite throughput.
	withZero := []float64{1, 0, 2}
	if got := PeakRate(withZero, 5); got != 0 {
		t.Fatalf("peak over a zero duration = %v, want 0", got)
	}
	// A zero iteration inside a window whose sum stays positive still
	// yields a finite rate: windows [1,1]=2 and [1,0]=1, best 1 → 2·2/1.
	if got := SustainedRate([]float64{1, 1, 0}, 2, 2); got != 4 {
		t.Fatalf("sustained = %v, want 4", got)
	}
}

func TestNegativeDurationsReportZero(t *testing.T) {
	// A clock step can hand back a negative elapsed time; no rate function
	// may launder it into a negative or infinite rate.
	neg := []float64{1, -2, 3}
	for name, got := range map[string]float64{
		"peak":      PeakRate(neg, 5),
		"sustained": SustainedRate(neg, 5, 2),
	} {
		if got != 0 {
			t.Errorf("%s over negative duration = %v, want 0", name, got)
		}
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("%s = %v, must be finite", name, got)
		}
	}
}

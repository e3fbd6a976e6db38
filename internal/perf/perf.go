// Package perf implements the paper's §V measurement methodology: flop
// rates derived from per-iteration wall-clock times, where the *peak* rate
// comes from the fastest single iteration and the *sustained* rate from the
// best average over a contiguous window of iterations. The cluster
// simulator reports its Figs 6-8 rates with it.
package perf

// PeakRate returns the §V peak rate: work divided by the fastest iteration.
// Non-positive durations (clock skew) report 0, never Inf.
func PeakRate(durations []float64, workPerIter float64) float64 {
	if len(durations) == 0 {
		return 0
	}
	best := durations[0]
	for _, d := range durations[1:] {
		best = min(best, d)
	}
	if best <= 0 {
		return 0
	}
	return workPerIter / best
}

// SustainedRate returns the §V sustained rate: work·w divided by the
// minimum sum over any contiguous window of w iterations. A window outside
// [1, len(durations)] is the whole run.
func SustainedRate(durations []float64, workPerIter float64, w int) float64 {
	n := len(durations)
	if n == 0 {
		return 0
	}
	if w <= 0 || w > n {
		w = n
	}
	var sum float64
	for _, d := range durations[:w] {
		sum += d
	}
	best := sum
	for i := w; i < n; i++ {
		sum += durations[i] - durations[i-w]
		best = min(best, sum)
	}
	if best <= 0 {
		return 0
	}
	return workPerIter * float64(w) / best
}

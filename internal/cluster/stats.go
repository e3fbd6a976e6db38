package cluster

import "math"

// Probit is the inverse standard-normal CDF Φ⁻¹, via Acklam's rational
// approximation (relative error < 1.15e-9 over (0,1)). Used to draw the
// maximum of n i.i.d. lognormal jitter multipliers in O(1):
// max of n draws ~ F⁻¹(U^(1/n)) = exp(σ·Φ⁻¹(U^(1/n))).
func Probit(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	const (
		a1 = -3.969683028665376e+01
		a2 = 2.209460984245205e+02
		a3 = -2.759285104469687e+02
		a4 = 1.383577518672690e+02
		a5 = -3.066479806614716e+01
		a6 = 2.506628277459239e+00

		b1 = -5.447609879822406e+01
		b2 = 1.615858368580409e+02
		b3 = -1.556989798598866e+02
		b4 = 6.680131188771972e+01
		b5 = -1.328068155288572e+01

		c1 = -7.784894002430293e-03
		c2 = -3.223964580411365e-01
		c3 = -2.400758277161838e+00
		c4 = -2.549732539343734e+00
		c5 = 4.374664141464968e+00
		c6 = 2.938163982698783e+00

		d1 = 7.784695709041462e-03
		d2 = 3.224671290700398e-01
		d3 = 2.445134137142996e+00
		d4 = 3.754408661907416e+00

		pLow  = 0.02425
		pHigh = 1 - pLow
	)
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		return (((((a1*r+a2)*r+a3)*r+a4)*r+a5)*r + a6) * q /
			(((((b1*r+b2)*r+b3)*r+b4)*r+b5)*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c1*q+c2)*q+c3)*q+c4)*q+c5)*q + c6) /
			((((d1*q+d2)*q+d3)*q+d4)*q + 1)
	}
}

// The §V measurement methodology: flop rates from per-iteration wall-clock
// times, where the *peak* rate comes from the fastest single iteration and
// the *sustained* rate from the best average over a contiguous window of
// iterations. The simulator reports its Figs 6-8 rates with them.

// peakRate returns the §V peak rate: work divided by the fastest iteration.
// Non-positive durations (clock skew) report 0, never Inf.
func peakRate(durations []float64, workPerIter float64) float64 {
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

// sustainedRate returns the §V sustained rate: work·w divided by the
// minimum sum over any contiguous window of w iterations. A window outside
// [1, len(durations)] is the whole run.
func sustainedRate(durations []float64, workPerIter float64, w int) float64 {
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

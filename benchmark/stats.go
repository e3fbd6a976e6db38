package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method — the one Python's statistics.quantiles(xs, n=4)
// uses — so a spread computed here equals the one the driver computes from
// the same values. A single sample is its own quartiles; an empty slice
// gives zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 when empty.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// mean returns the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank q-quantile (0..1) of an ascending
// slice, 0 when empty.
func percentile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(asc)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(asc) {
		rank = len(asc) - 1
	}
	return asc[rank]
}

// tailLadder lists the percentiles a latency report may quote, lowest first.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// supportedTail caps want at the highest ladder percentile that still has
// at least ten samples beyond it in a sample of n: a p99 quoted from 300
// requests would be the fourth-worst request, which is an anecdote, not a
// quantile. With fewer than twenty samples even the median is unsupported
// and 0 is returned.
func supportedTail(n int, want float64) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if q > want {
			break
		}
		if float64(n)*(1-q) >= 10-1e-9 { // 100×(1−0.9) is 9.999… in floating point
			best = q
		}
	}
	return best
}

// tailPercentile quotes the want percentile of an ascending sample, or the
// highest supported one below it (see supportedTail). used is the
// percentile actually quoted; 0 means the sample supports none.
func tailPercentile(asc []float64, want float64) (value, used float64) {
	used = supportedTail(len(asc), want)
	if used == 0 {
		return 0, 0
	}
	return percentile(asc, used), used
}

package main

import (
	"runtime"
	"time"
)

// timeLoop calls fn repeatedly for about budget and returns the median
// seconds per call. Calls are timed in batches sized to a few milliseconds
// so timer resolution does not matter for microsecond kernels.
func timeLoop(budget time.Duration, fn func()) float64 {
	fn() // warm: plan compiles, pools, page faults
	per := 1
	for {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		if time.Since(t0) >= 2*time.Millisecond || per >= 1<<20 {
			break
		}
		per *= 2
	}
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		samples = append(samples, time.Since(t0).Seconds()/float64(per))
	}
	return median(samples)
}

// allocsPer returns heap allocations per call of fn over n warm calls,
// counted process-wide, so goroutines fn spawns are included. Callers must
// make sure nothing else in the process allocates meanwhile.
func allocsPer(n int, fn func()) float64 {
	fn()
	runtime.GC()
	before := mallocs()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(mallocs()-before) / float64(n)
}

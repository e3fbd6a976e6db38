package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers caps kernel parallelism; defaults to GOMAXPROCS. The paper uses
// 66 of 68 KNL cores per node (2 reserved for the OS); SetWorkers lets the
// harness mimic that policy on the host. Every kernel call reads it, from
// every replica goroutine, so it is an atomic rather than a lock whose
// cache line the readers would pass back and forth.
var workers atomic.Int32

func init() { workers.Store(int32(runtime.GOMAXPROCS(0))) }

// SetWorkers sets the thread budget of one model's kernels. n < 1 is
// clamped to 1. Returns the previous value. The count governs two forks and
// nothing else: the lanes a tiled inference plan runs its tiles on (nn's
// tile.go, one per worker), and the row panels a GEMM of at least
// gemmParallelMin multiply-adds splits into. Every other kernel, and every
// smaller GEMM, runs on the calling goroutine whatever the count.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(workers.Swap(int32(n)))
}

// Workers returns the thread budget SetWorkers set: the lane count of a
// tiled inference plan and the panel count of a large GEMM.
func Workers() int { return int(workers.Load()) }

// ParallelFor runs fn(lo,hi) over a partition of [0,n) across the configured
// worker count. Chunks are contiguous so memory access stays streaming; the
// caller runs the last one itself. With one worker (or tiny n) it runs
// inline, avoiding goroutine overhead.
func ParallelFor(n int, fn func(lo, hi int)) {
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	lo := 0
	for ; lo+chunk < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, lo+chunk)
	}
	fn(lo, n) // the last chunk runs on the caller
	wg.Wait()
}

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

// SetWorkers sets the number of goroutines kernel loops may use. n < 1 is
// clamped to 1. Returns the previous value.
func SetWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(workers.Swap(int32(n)))
}

// Workers returns the current kernel parallelism.
func Workers() int { return int(workers.Load()) }

// SerialFor reports whether a ParallelFor over n items would run inline
// (one worker, or nothing to split). Hot kernels consult it to call their
// range body directly in that case: constructing the ParallelFor closure
// forces its captures onto the heap even when the loop never spawns, and
// the compiled-plan execution path (nn.Plan) promises zero steady-state
// allocation under single-worker kernels.
func SerialFor(n int) bool {
	return n <= 1 || Workers() <= 1
}

// ParallelFor runs fn(lo,hi) over a partition of [0,n) across the configured
// worker count. Chunks are contiguous so memory access stays streaming. With
// one worker (or tiny n) it runs inline, avoiding goroutine overhead.
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
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

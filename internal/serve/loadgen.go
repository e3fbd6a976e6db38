package serve

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deep15pf/internal/obs"
	"deep15pf/internal/tensor"
)

// LoadInput is one request template for the load generator: a per-sample
// input tensor plus an optional check applied to each response (shape and
// sanity assertions, typically).
type LoadInput struct {
	X     *tensor.Tensor
	Check func(y *tensor.Tensor) error
}

// Submitter is anything the load generators can drive: a local Server or
// a network-tier handle (netserve's client and router frontends adapt to
// it), so the same load harness measures in-process and over-the-wire
// serving with identical arrival processes.
type Submitter interface {
	Submit(x *tensor.Tensor) (*tensor.Tensor, error)
}

// LoadResult summarises one load run. Requests counts requests that
// actually completed (and passed their check); Dropped counts requests
// that returned an error — the number the rolling-restart gate requires
// to be zero. P50/P95/P99 are client-observed end-to-end latencies
// (submit→response), measured at the generator so they include everything
// a real caller would see: socket writes, routing, queueing, inference.
type LoadResult struct {
	Requests int
	Dropped  int
	Wall     time.Duration
	// Throughput is completed requests per second over the run.
	Throughput    float64
	P50, P95, P99 time.Duration
	Err           error
}

// RunClosedLoop drives total requests through s from clients concurrent
// closed-loop clients (each submits its next request the moment the
// previous one completes — the standard saturation workload for a
// throughput study). Clients cycle through inputs; the first Submit error
// aborts the run. Inputs are only read, so they may be shared views into a
// dataset tensor.
//
// Closed-loop load self-limits: a slow server slows its own clients, so
// queueing delay hides from the latency record. RunOpenLoop is the
// honest-tail counterpart.
func RunClosedLoop(s Submitter, inputs []*LoadInput, clients, total int) LoadResult {
	if clients < 1 {
		clients = 1
	}
	if clients > total {
		clients = total
	}
	var (
		next      atomic.Int64
		completed atomic.Int64
		errOnce   sync.Once
		runErr    error
		wg        sync.WaitGroup
	)
	lats := make([][]float64, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mine := make([]float64, 0, total/clients+1)
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					lats[c] = mine
					return
				}
				in := inputs[i%len(inputs)]
				t0 := time.Now()
				y, err := s.Submit(in.X)
				if err != nil {
					errOnce.Do(func() { runErr = err })
					lats[c] = mine
					return
				}
				mine = append(mine, time.Since(t0).Seconds())
				if in.Check != nil {
					if err := in.Check(y); err != nil {
						errOnce.Do(func() { runErr = err })
						lats[c] = mine
						return
					}
				}
				completed.Add(1)
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	n := int(completed.Load())
	res := LoadResult{Requests: n, Dropped: total - n, Wall: wall, Err: runErr}
	if sec := wall.Seconds(); sec > 0 {
		res.Throughput = float64(n) / sec
	}
	res.fillQuantiles(lats)
	return res
}

// RunOpenLoop drives total requests through s with Poisson arrivals at
// rate requests/second: inter-arrival gaps are exponential draws from a
// deterministic RNG, and every arrival fires on schedule whether or not
// earlier requests have completed. This is the load a fleet actually
// faces — independent users do not wait for each other — and it is the
// honest way to measure tail latency: under a closed loop a slow server
// throttles its own clients, so queueing delay never shows up in p99,
// while an open loop keeps arriving and the backlog lands in the
// latency record where it belongs.
//
// Submit errors do not abort the run (arrivals are exogenous); they are
// counted in Dropped and the first one is recorded in Err.
func RunOpenLoop(s Submitter, inputs []*LoadInput, rate float64, total int, seed uint64) LoadResult {
	if rate <= 0 || total <= 0 {
		return LoadResult{}
	}
	var (
		completed atomic.Int64
		dropped   atomic.Int64
		errOnce   sync.Once
		runErr    error
		wg        sync.WaitGroup
		mu        sync.Mutex
	)
	lats := make([]float64, 0, total)
	rng := tensor.NewRNG(seed)
	start := time.Now()
	next := start
	for i := 0; i < total; i++ {
		// Exponential inter-arrival: -ln(U)/rate, U in (0,1].
		u := rng.Float64()
		if u <= 0 {
			u = 1
		}
		next = next.Add(time.Duration(-math.Log(u) / rate * float64(time.Second)))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		in := inputs[i%len(inputs)]
		wg.Add(1)
		go func(in *LoadInput) {
			defer wg.Done()
			t0 := time.Now()
			y, err := s.Submit(in.X)
			if err == nil && in.Check != nil {
				err = in.Check(y)
			}
			if err != nil {
				dropped.Add(1)
				errOnce.Do(func() { runErr = err })
				return
			}
			l := time.Since(t0).Seconds()
			mu.Lock()
			lats = append(lats, l)
			mu.Unlock()
			completed.Add(1)
		}(in)
	}
	wg.Wait()
	wall := time.Since(start)
	n := int(completed.Load())
	res := LoadResult{Requests: n, Dropped: int(dropped.Load()), Wall: wall, Err: runErr}
	if sec := wall.Seconds(); sec > 0 {
		res.Throughput = float64(n) / sec
	}
	res.fillQuantiles([][]float64{lats})
	return res
}

// fillQuantiles merges per-client latency records and computes the
// nearest-rank quantiles.
func (r *LoadResult) fillQuantiles(lats [][]float64) {
	n := 0
	for _, l := range lats {
		n += len(l)
	}
	if n == 0 {
		return
	}
	all := make([]float64, 0, n)
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Float64s(all)
	r.P50 = time.Duration(obs.QuantileSorted(all, 0.50) * float64(time.Second))
	r.P95 = time.Duration(obs.QuantileSorted(all, 0.95) * float64(time.Second))
	r.P99 = time.Duration(obs.QuantileSorted(all, 0.99) * float64(time.Second))
}

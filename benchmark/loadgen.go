package main

import (
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// request sends input i and reports whether the response came back and
// matched its reference. It is the only thing the generators know about
// the system under test.
type request func(i int) bool

// loadResult is one generator window.
type loadResult struct {
	Sent, Failed int
	Wall         float64   // seconds
	LatMs        []float64 // per-request latency, ascending
	// LateMsMean is how far behind its schedule the open-loop generator
	// fired on average; 0 for a closed loop.
	LateMsMean float64
}

func (r loadResult) rate() float64 { return float64(r.Sent-r.Failed) / r.Wall }

// closedLoop drives do from clients concurrent callers for dur: each sends
// its next request the moment the previous one completes, so a slow system
// receives less load and queueing hides from the latencies. Inputs are
// walked in a seeded order, a different offset per client.
func closedLoop(do request, inputs, clients int, dur time.Duration, seed uint64) loadResult {
	type tally struct {
		lat    []float64
		failed int
	}
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(cl)))
			t := &tallies[cl]
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				ok := do(rng.IntN(inputs))
				t.lat = append(t.lat, float64(time.Since(t0).Nanoseconds())/1e6)
				if !ok {
					t.failed++
				}
			}
		}(cl)
	}
	wg.Wait()
	res := loadResult{Wall: time.Since(start).Seconds()}
	for _, t := range tallies {
		res.LatMs = append(res.LatMs, t.lat...)
		res.Failed += t.failed
	}
	res.Sent = len(res.LatMs)
	res.LatMs = sorted(res.LatMs)
	return res
}

// arrival is one scheduled request of an open loop.
type arrival struct {
	Due   time.Duration // offset from the window's start
	Input int
}

// poissonSchedule draws the arrivals of an open loop at rate requests per
// second over dur: exponential gaps from a seeded generator, so the same
// seed gives the same schedule whatever the system does with it.
func poissonSchedule(rate float64, dur time.Duration, inputs int, seed uint64) []arrival {
	rng := rand.New(rand.NewPCG(seed, 0x6f70656e)) // "open"
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return out
		}
		out = append(out, arrival{Due: due, Input: rng.IntN(inputs)})
	}
}

// openLoop fires the schedule regardless of completions: independent users
// do not wait for each other, so a stall queues the arrivals behind it and
// the backlog lands in the latency record. Each latency runs from the
// request's due time, not from when the generator got round to sending it,
// and how late the generator ran is reported beside it. The generator
// sleeps to within a millisecond of the due time and then spins without
// yielding: on the baseline host time.Sleep overshoots by ~0.5 ms, and a
// spin that yields (runtime.Gosched) puts the generator on the scheduler's
// global queue between every pair of server goroutines, which quintupled
// the p50 it was there to measure. The price is one CPU of the host spent
// on the generator while a window runs.
func openLoop(do request, schedule []arrival) loadResult {
	lat := make([]float64, len(schedule))
	var failed atomic.Int64
	var lateNs int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range schedule {
		for {
			wait := a.Due - time.Since(start)
			if wait <= 0 {
				lateNs += -wait.Nanoseconds()
				break
			}
			if wait > time.Millisecond {
				time.Sleep(wait - time.Millisecond)
			}
		}
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			ok := do(a.Input)
			lat[i] = float64((time.Since(start) - a.Due).Nanoseconds()) / 1e6
			if !ok {
				failed.Add(1)
			}
		}(i, a)
	}
	wg.Wait()
	res := loadResult{
		Sent: len(schedule), Failed: int(failed.Load()),
		Wall: time.Since(start).Seconds(),
	}
	res.LatMs = sorted(lat)
	if len(schedule) > 0 {
		res.LateMsMean = float64(lateNs) / 1e6 / float64(len(schedule))
	}
	return res
}

// maxAbsDiff returns the largest elementwise |a−b|, +Inf on a length
// mismatch.
func maxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var worst float64
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > worst || math.IsNaN(d) {
			worst = d
		}
	}
	return worst
}

package main

// Adapter for internal/comm — the only file of the benchmark that imports
// it. Entry points used: NewGroup, Group.AllReduceMean.

import (
	"sync"
	"time"

	"deep15pf/internal/comm"
)

// probeAllReduce times a two-rank mean all-reduce over one buffer of elems
// floats per call (the whole model's gradients in one blob) and returns
// microseconds per collective.
func probeAllReduce(elems int, budget time.Duration) float64 {
	const ranks = 2
	g := comm.NewGroup(ranks)
	bufs := [ranks][]float32{make([]float32, elems), make([]float32, elems)}
	// Rank 1 mirrors rank 0 call for call; next tells it to go once more.
	next := make(chan bool)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range next {
			g.AllReduceMean(1, bufs[1])
		}
	}()
	sec := timeLoop(budget, func() {
		next <- true
		g.AllReduceMean(0, bufs[0])
	})
	close(next)
	wg.Wait()
	return sec * 1e6
}

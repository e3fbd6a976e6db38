package main

// Adapter for internal/opt — the only file of the benchmark that calls into
// it. Entry points used: NewAdam, Solver.Step.

import (
	"time"

	"deep15pf/internal/opt"
)

type Solver = opt.Solver

func newAdam(lr float64) Solver { return opt.NewAdam(lr) }

// probeAdamStep times one ADAM step over every trainable layer of a fresh
// replica of p, with gradients left at whatever one backward produced, and
// returns microseconds per step.
func probeAdamStep(p Problem, batch int, budget time.Duration) float64 {
	rep := p.NewReplica()
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = i
	}
	rep.ZeroGrad()
	rep.ComputeGradients(idx)
	solver := opt.NewAdam(1e-3)
	layers := rep.TrainableLayers()
	return timeLoop(budget, func() {
		for _, l := range layers {
			solver.Step(l.Params())
		}
	}) * 1e6
}

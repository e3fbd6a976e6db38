package main

// Adapter for internal/core — the only file of the benchmark that imports
// it. Entry points used: TrainSync, TrainHybrid, Config, CheckpointConfig,
// Result, IterStat, Problem, Problem.NewReplica, Replica.ComputeGradients/
// ZeroGrad/TrainableLayers.

import (
	"time"

	"deep15pf/internal/core"
)

type (
	TrainConfig      = core.Config
	CheckpointConfig = core.CheckpointConfig
	TrainResult      = core.Result
	Problem          = core.Problem
)

func trainSync(p Problem, cfg TrainConfig) TrainResult   { return core.TrainSync(p, cfg) }
func trainHybrid(p Problem, cfg TrainConfig) TrainResult { return core.TrainHybrid(p, cfg) }

// probeReplicaStep times one replica's ComputeGradients over a fixed batch
// of the first n samples and returns milliseconds per step.
func probeReplicaStep(p Problem, n int, budget time.Duration) float64 {
	rep := p.NewReplica()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return timeLoop(budget, func() {
		rep.ZeroGrad()
		rep.ComputeGradients(idx)
	}) * 1e3
}

package main

// Adapter for internal/ps — the only file of the benchmark that imports it.
// Entry points used: NewFleet, Fleet.UpdateAll/Size. Wire byte counts come
// from core.Result.Wire (a ps.WireStats), read in the workload by field.

import (
	"time"

	"deep15pf/internal/ps"
)

// probePSPush times one whole-model push: every layer's gradients of a
// fresh replica of p go to a fresh fleet of per-layer servers, which apply
// ADAM and hand the weights back. Returns milliseconds per update and the
// number of servers.
func probePSPush(p Problem, batch int, budget time.Duration) (ms float64, servers int) {
	rep := p.NewReplica()
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = i
	}
	rep.ZeroGrad()
	rep.ComputeGradients(idx)
	layers := rep.TrainableLayers()
	fleet := ps.NewFleet(layers, newAdam(1e-3))
	grads := make([][][]float32, len(layers))
	for i, l := range layers {
		for _, prm := range l.Params() {
			grads[i] = append(grads[i], prm.Grad.Data)
		}
	}
	ms = timeLoop(budget, func() { fleet.UpdateAll(0, grads) }) * 1e3
	return ms, fleet.Size()
}

package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"deep15pf/internal/comm"
	"deep15pf/internal/data"
	"deep15pf/internal/obs"
	"deep15pf/internal/ps"
)

// TrainHybrid runs the paper's hybrid architecture with real concurrency:
// cfg.Groups compute groups, each of cfg.WorkersPerGroup goroutine workers.
// Within a group gradients are all-reduced synchronously; the group root
// exchanges each layer with its dedicated parameter server (ps.Fleet)
// through the wire codec and broadcasts the fresh model back to its group
// (§III-E, Figs 2–4). Groups never synchronise with each other — asynchrony
// and staleness are real, produced by goroutine scheduling.
//
// With cfg.Overlap the per-layer exchange is pipelined with the backward
// pass: layer L+1's reduction and PS push run while layer L's backward is
// still executing, the §III-D/E overlap that keeps communication off the
// critical path. With Overlap off and the fp32 codec the update arithmetic
// is bitwise identical to the fully serialized original.
//
// With cfg.Checkpoint, group 0's root snapshots the PS fleet (master
// weights + per-shard solver state) at its iteration boundaries. On
// asynchronous (multi-group) runs the snapshot is per-layer consistent —
// the same consistency the fleet itself ever has; on the deterministic
// single-group configuration it is a clean point between updates, which
// is what makes resume bit-exact there.
func TrainHybrid(p Problem, cfg Config) Result {
	cfg.validate()

	// The PS fleet owns the master model: one server per trainable layer
	// (sharded by flat-parameter range above cfg.PSShardElems), initialised
	// from a template replica, solver state server-side. On resume the
	// snapshot weights land in the template first (so the fleet masters
	// start from them), then the per-shard solver state restores on top.
	template := p.NewReplica()
	layers := template.TrainableLayers()
	start := 0
	restored := resumeInto(cfg, flatParams(layers))
	fleet := ps.NewShardedFleet(layers, cfg.Solver, cfg.PSShardElems)
	if restored != nil {
		start = restored.Manifest.Step
		checkResumeStep(start, cfg.Iterations)
		if restored.Servers != nil {
			weights := layerWeightViews(layers)
			if err := fleet.RestoreSnapshot(weights, restored.Servers); err != nil {
				panic("core: resume: " + err.Error())
			}
		}
	}
	ck := newCheckpointer(cfg, layers, fleet)

	var seq atomic.Int64
	type rec struct {
		stat IterStat
	}
	recCh := make(chan rec, cfg.Groups*(cfg.Iterations-start))

	var wg sync.WaitGroup
	ingests := make([]data.IngestStats, cfg.Groups)
	for g := 0; g < cfg.Groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ingests[g] = runGroup(p, cfg, g, start, fleet, ck, func(stat IterStat) {
				stat.Seq = int(seq.Add(1)) - 1
				recCh <- rec{stat}
			})
		}(g)
	}
	wg.Wait()
	close(recCh)

	stats := make([]IterStat, 0, cfg.Groups*(cfg.Iterations-start))
	for r := range recCh {
		stats = append(stats, r.stat)
	}
	sort.Slice(stats, func(i, j int) bool { return stats[i].Seq < stats[j].Seq })
	res := finalize(stats, cfg.Groups)
	res.FinalWeights = fleetWeights(fleet)
	res.Wire = fleet.WireStats()
	for _, ing := range ingests {
		res.Ingest = res.Ingest.Add(ing)
	}
	res.Ckpt = ck.close()
	return res
}

// fleetWeights snapshots the PS masters (the trained model).
func fleetWeights(fleet *ps.Fleet) [][][]float32 {
	out := make([][][]float32, len(fleet.Servers))
	for i, s := range fleet.Servers {
		out[i] = s.Weights()
	}
	return out
}

// runGroup executes one compute group's synchronous inner loop and its
// asynchronous PS exchanges, starting at group-local iteration `start`
// (non-zero when resuming). record is called once per completed iteration
// with the group-batch mean loss and staleness; the return value is the
// group's aggregated input-staging account.
func runGroup(p Problem, cfg Config, g, start int, fleet *ps.Fleet, ck *checkpointer, record func(IterStat)) data.IngestStats {
	w := cfg.WorkersPerGroup
	src := p.NewBatchSource(cfg.Seed + uint64(g)*0x9E37)
	batches := make([][]int, cfg.Iterations)
	for i := range batches {
		batches[i] = append([]int(nil), src.Next(cfg.GroupBatch)...)
	}

	replicas := make([]*Replica, w)
	for r := range replicas {
		replicas[r] = p.NewReplica()
	}
	group := comm.NewGroup(w)

	var wg sync.WaitGroup
	for rank := 0; rank < w; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rep := replicas[rank]
			gw := newGroupWorker(rank, group, rep, nil, cfg.Overlap)
			gw.setLane(cfg.Trace.Lane(fmt.Sprintf("g%d.w%d", g, rank)))
			startIngest(rep, batches[start:], rank, w, cfg.Prefetch)
			defer rep.StopIngest()
			if rank == 0 {
				// The exchanger waits on the worker's own handle table: the
				// worker fills row t, then the trigger send publishes it.
				gw.ex = newExchanger(fleet, g, gw.layers, gw.handles, cfg.Codec, cfg.Seed)
				defer gw.ex.close()
			}

			// Initial model fetch: the root reads the master, everyone
			// installs it so the group starts on the PS state.
			if rank == 0 {
				resps := fleet.FetchAll(g)
				weights := make([][][]float32, len(resps))
				for i, r := range resps {
					weights[i] = r.Weights
				}
				InstallWeights(gw.layers, weights)
			}
			group.Barrier()
			gw.broadcastWeights()

			shards := shardCache{rank: rank, workers: w}
			for it := start; it < cfg.Iterations; it++ {
				gw.lane.SetIter(it)
				lo, hi := shards.shard(len(batches[it]))
				idx := batches[it][lo:hi]
				rep.ZeroGrad()
				loss := gw.compute(idx)
				lossAll := group.GatherInto(rank, 0, loss, gw.lossBuf)

				// Root ↔ per-layer parameter servers (asynchronous with
				// respect to every other group): wait out the in-flight
				// pushes, which land the fresh model directly in the root
				// replica's parameters.
				if rank == 0 {
					gw.lane.Begin(obs.PhaseCommWait)
					stale := gw.ex.await()
					gw.lane.End(obs.PhaseCommWait)
					var lossSum float64
					for _, v := range lossAll {
						lossSum += v
					}
					record(IterStat{
						Group:     g,
						Iter:      it,
						Loss:      lossSum / float64(len(lossAll)),
						Staleness: stale,
					})
					// Group 0's root paces the snapshots; with one group
					// (the deterministic config) every push has completed,
					// so the fleet is exactly the post-iteration state.
					if g == 0 && ck.due(it+1) {
						gw.lane.Begin(obs.PhaseCkptStage)
						ck.fleetSnapshot(it+1, nil, nil)
						gw.lane.End(obs.PhaseCkptStage)
					}
				}
				// Broadcast the fresh model to the group (an exposed
				// collective wait on every rank).
				gw.lane.Begin(obs.PhaseCommWait)
				gw.broadcastWeights()
				gw.lane.End(obs.PhaseCommWait)
			}
		}(rank)
	}
	wg.Wait()
	var ing data.IngestStats
	for _, rep := range replicas {
		ing = ing.Add(rep.IngestStats())
	}
	return ing
}

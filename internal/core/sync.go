package core

import (
	"fmt"
	"sync"

	"deep15pf/internal/comm"
	"deep15pf/internal/obs"
	"deep15pf/internal/opt"
)

// TrainSync runs fully synchronous data-parallel training (the paper's
// baseline, Fig 1 left): cfg.WorkersPerGroup workers split each batch,
// all-reduce mean gradients, and apply identical solver steps to their
// replicas, which therefore stay in lockstep. cfg.Groups must be 1.
//
// Each layer's all-reduce starts the moment its backward finishes, hiding
// the reduction behind the remaining backward compute; the arithmetic is a
// fixed rank-order reduction per parameter. There is no parameter server
// here, so cfg.Codec does not apply (the intra-group wire is always fp32).
//
// With cfg.Checkpoint the run snapshots rank 0's replica and solver at
// iteration boundaries (ranks are in lockstep, so rank 0 IS the model),
// and cfg.Checkpoint.Resume continues from the newest snapshot: weights
// and solver state restore from the store, and the batch stream replays to
// the resume point — the same draws in the same order — so the resumed
// trajectory is bitwise identical to the uninterrupted one.
func TrainSync(p Problem, cfg Config) Result {
	cfg.validate()
	if cfg.Groups != 1 {
		panic("core: TrainSync requires Groups == 1")
	}
	w := cfg.WorkersPerGroup

	// Pre-draw every iteration's batch so workers agree without racing
	// on the source. A resumed run re-draws the full sequence from the
	// same seed — the checkpoint's batch cursor is the step count.
	src := p.NewBatchSource(cfg.Seed)
	batches := make([][]int, cfg.Iterations)
	for i := range batches {
		batches[i] = append([]int(nil), src.Next(cfg.GroupBatch)...)
	}

	replicas := make([]*Replica, w)
	for r := range replicas {
		replicas[r] = p.NewReplica()
	}

	// Resume: weights land in replica 0, then fan out so every rank
	// starts from the snapshot; each rank's solver state restores inside
	// its worker goroutine (the solvers are clones, state is positional).
	start := 0
	restored := resumeInto(cfg, flatParams(replicas[0].TrainableLayers()))
	if restored != nil {
		start = restored.Manifest.Step
		checkResumeStep(start, cfg.Iterations)
		weights := ExtractWeights(replicas[0].TrainableLayers())
		for r := 1; r < w; r++ {
			InstallWeights(replicas[r].TrainableLayers(), weights)
		}
	}
	ck := newCheckpointer(cfg, replicas[0].TrainableLayers(), nil)

	group := comm.NewGroup(w)
	losses := make([]float64, cfg.Iterations)

	var wg sync.WaitGroup
	for rank := 0; rank < w; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rep := replicas[rank]
			gw := newGroupWorker(rank, group, rep, cfg.Trace.Lane(fmt.Sprintf("w%d", rank)))
			shares := startIngest(rep, batches[start:], rank, w)
			defer rep.StopIngest()
			solver := cfg.Solver.Clone()
			params := flatParams(gw.layers)
			if restored != nil && restored.Solver != nil {
				if err := opt.RestoreState(solver, params, restored.Solver); err != nil {
					panic("core: resume: " + err.Error())
				}
			}
			for it := start; it < cfg.Iterations; it++ {
				gw.lane.SetIter(it)
				rep.ZeroGrad()
				// Mean over workers of per-shard means = batch mean
				// (shards are equal-sized by construction). With no
				// exchanger attached, compute waits out every reduction
				// before returning.
				loss := gw.compute(shares[it-start])
				if all := group.GatherInto(rank, 0, loss, gw.lossBuf); all != nil {
					var sum float64
					for _, v := range all {
						sum += v
					}
					losses[it] = sum / float64(len(all))
				}
				// Identical state + identical gradients → identical
				// steps: replicas remain bitwise synchronised.
				gw.lane.Begin(obs.PhaseOptApply)
				for _, lp := range gw.lparams {
					solver.Step(lp)
				}
				gw.lane.End(obs.PhaseOptApply)
				// Rank 0 checkpoints the lockstep state at the boundary
				// (its own replica and solver — nothing shared, no race).
				if rank == 0 && ck.due(it+1) {
					gw.lane.Begin(obs.PhaseCkptStage)
					ck.syncSnapshot(it+1, params, solver)
					gw.lane.End(obs.PhaseCkptStage)
				}
			}
		}(rank)
	}
	wg.Wait()

	stats := make([]IterStat, 0, cfg.Iterations-start)
	for it := start; it < cfg.Iterations; it++ {
		stats = append(stats, IterStat{Seq: it, Group: 0, Iter: it, Loss: losses[it]})
	}
	res := finalize(stats, 1)
	// Replicas are in lockstep; rank 0's weights are the trained model.
	res.FinalWeights = ExtractWeights(replicas[0].TrainableLayers())
	for _, rep := range replicas {
		res.Ingest = res.Ingest.Add(rep.IngestStats())
	}
	res.Ckpt = ck.close()
	return res
}

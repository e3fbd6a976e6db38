package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"deep15pf/internal/comm"
	"deep15pf/internal/data"
	"deep15pf/internal/nn"
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
// The per-layer exchange is pipelined with the backward pass: layer L+1's
// reduction and PS push run while layer L's backward is still executing,
// the §III-D/E overlap that keeps communication off the critical path.
//
// With cfg.Checkpoint, group 0's root snapshots the PS fleet (master
// weights + per-layer solver state) at its iteration boundaries. On
// asynchronous (multi-group) runs the snapshot is per-layer consistent —
// the same consistency the fleet itself ever has; on the deterministic
// single-group configuration it is a clean point between updates, which
// is what makes resume bit-exact there.
func TrainHybrid(p Problem, cfg Config) Result {
	return newHybridRun(p, cfg).run()
}

// hybridRun is what a hybrid run's groups share: the fleet that owns the
// master model, every group's replicas, the snapshot machinery, the
// completion books and — on a scheduled run — the turn gate.
type hybridRun struct {
	p        Problem
	cfg      Config
	fleet    *ps.Fleet
	ck       *checkpointer
	gate     *turnGate     // nil: groups run free
	replicas [][]*Replica  // [group][rank]
	starts   []int         // per group: the iteration it resumes at
	ends     []int         // per group: the iteration it stops before
	iters    []int         // per group: completed iterations (scheduled snapshots)
	views    [][]*nn.Param // per group: the root's flat params (scheduled snapshots)
	resumed  int           // group iterations done before the snapshot resumed from
	updates  atomic.Int64  // completed group iterations, resumed ones included
	stats    []IterStat    // in completion order
}

// newHybridRun builds the fleet and every group's replicas, restores the
// newest snapshot when resuming, and installs each group's starting model.
func newHybridRun(p Problem, cfg Config) *hybridRun {
	cfg.validate()
	// The PS fleet owns the master model: one server per trainable layer,
	// initialised from a template replica, solver state server-side. On
	// resume the snapshot weights land in the template first (so the fleet
	// masters start from them), then the solver state restores on top.
	template := p.NewReplica()
	layers := template.TrainableLayers()
	restored := resumeInto(cfg, flatParams(layers))
	h := &hybridRun{
		p:        p,
		cfg:      cfg,
		fleet:    ps.NewFleet(layers, cfg.Solver),
		replicas: make([][]*Replica, cfg.Groups),
		starts:   make([]int, cfg.Groups),
		ends:     make([]int, cfg.Groups),
		views:    make([][]*nn.Param, cfg.Groups),
	}
	if restored != nil {
		if restored.Servers != nil {
			if err := h.fleet.RestoreSnapshot(layerWeightViews(layers), restored.Servers); err != nil {
				panic("core: resume: " + err.Error())
			}
		}
		h.starts = groupCursors(restored, cfg)
	}
	h.iters = append([]int(nil), h.starts...)
	for g, s := range h.starts {
		h.ends[g] = cfg.Iterations
		h.resumed += s
	}
	h.updates.Store(int64(h.resumed))

	// Every group's root starts from the master. All the fetches come
	// before any push, so every server's staleness books open together.
	for g := range h.replicas {
		h.replicas[g] = make([]*Replica, cfg.WorkersPerGroup)
		for r := range h.replicas[g] {
			h.replicas[g][r] = p.NewReplica()
		}
		root := h.replicas[g][0].TrainableLayers()
		resps := h.fleet.FetchAll(g)
		weights := make([][][]float32, len(resps))
		for i, r := range resps {
			weights[i] = r.Weights
		}
		InstallWeights(root, weights)
		h.views[g] = flatParams(root)
		// A resumed scheduled group's replica holds the master as of its
		// own last push — stale relative to the restored master by every
		// later push from other groups. The snapshot carried that view
		// (shape-checked by the store); install it over the fresh fetch,
		// which only served the staleness books.
		if restored != nil && restored.GroupWeights != nil {
			for i, p := range h.views[g] {
				copy(p.W.Data, restored.GroupWeights[g][i])
			}
		}
	}
	h.ck = newCheckpointer(cfg, layers, h.fleet)
	return h
}

// run trains every group to its end and collects the result.
func (h *hybridRun) run() Result {
	n := 0
	for g := range h.replicas {
		n += h.ends[g] - h.starts[g]
	}
	h.stats = make([]IterStat, n)
	var wg sync.WaitGroup
	ingests := make([]data.IngestStats, h.cfg.Groups)
	for g := range h.replicas {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ingests[g] = h.runGroup(g)
		}(g)
	}
	wg.Wait()

	res := finalize(h.stats, h.cfg.Groups)
	for _, s := range h.fleet.Servers {
		res.FinalWeights = append(res.FinalWeights, s.Weights())
	}
	res.Wire = h.fleet.WireStats()
	for _, ing := range ingests {
		res.Ingest = res.Ingest.Add(ing)
	}
	res.Ckpt = h.ck.close()
	return res
}

// runGroup executes one compute group's synchronous inner loop and its
// asynchronous PS exchanges over its iterations [starts[g], ends[g]). The
// return value is the group's aggregated input-staging account.
func (h *hybridRun) runGroup(g int) data.IngestStats {
	cfg := h.cfg
	w := cfg.WorkersPerGroup
	start, end := h.starts[g], h.ends[g]
	src := h.p.NewBatchSource(cfg.Seed + uint64(g)*0x9E37)
	batches := make([][]int, end)
	for i := range batches {
		batches[i] = append([]int(nil), src.Next(cfg.GroupBatch)...)
	}

	replicas := h.replicas[g]
	group := comm.NewGroup(w)
	var wg sync.WaitGroup
	for rank := 0; rank < w; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rep := replicas[rank]
			gw := newGroupWorker(rank, group, rep, cfg.Trace.Lane(fmt.Sprintf("g%d.w%d", g, rank)))
			shares := startIngest(rep, batches[start:], rank, w)
			defer rep.StopIngest()
			if rank == 0 {
				// The exchanger waits on the worker's own handle table: the
				// worker fills row t, then the trigger send publishes it.
				gw.ex = newExchanger(h.fleet, g, gw.layers, gw.handles, cfg.Codec, cfg.Seed)
				defer gw.ex.close()
			}
			// The root holds the group's starting model; everyone installs it.
			gw.broadcastWeights()

			for it := start; it < end; it++ {
				gw.lane.SetIter(it)
				if rank == 0 {
					h.gate.acquire(g)
				}
				rep.ZeroGrad()
				loss := gw.compute(shares[it-start])
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
					h.complete(g, it, lossSum/float64(len(lossAll)), stale, gw.lane)
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

// complete books group g's finished iteration it on the group's root: the
// iteration's stat, the snapshot it may pace and, on a scheduled run, the
// hand-off of the turn.
//
// Free-running, group 0's root paces the snapshots; with one group (the
// deterministic configuration) every push has completed, so the fleet is
// exactly the post-iteration state. Scheduled, the turn holder snapshots
// after every Every-th update, with each group's cursor and replica view:
// no other group is exchanging while it holds the turn.
func (h *hybridRun) complete(g, it int, loss, stale float64, lane *obs.Lane) {
	updates := int(h.updates.Add(1))
	done := updates - 1 - h.resumed // this run's completion index
	stat := IterStat{Seq: done, Group: g, Iter: it, Loss: loss, Staleness: stale}
	step, due := it+1, g == 0 && h.ck.due(it+1)
	var iters []int
	var views [][]*nn.Param
	if h.gate != nil {
		stat.Seq, stat.Time = h.gate.event()
		h.iters[g] = it + 1
		step, due, iters, views = updates, h.ck.due(updates), h.iters, h.views
	}
	h.stats[done] = stat
	if due {
		lane.Begin(obs.PhaseCkptStage)
		h.ck.fleetSnapshot(step, updates, iters, views)
		lane.End(obs.PhaseCkptStage)
	}
	h.gate.release()
}

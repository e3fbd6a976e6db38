package core

import (
	"fmt"
	"sort"

	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/ps"
)

// ScheduledEvent places one group iteration at a simulated completion time.
// Schedules come from the cluster model (internal/cluster), which knows
// what each group's iteration costs at the target node count — this is how
// the Fig 8 time-to-train study couples real SGD dynamics to Cori-scale
// hardware timing.
type ScheduledEvent struct {
	Group int
	Time  float64 // seconds on the simulated cluster clock
}

// BuildSchedule converts per-group iteration durations (from
// cluster.RunResult.IterDurations) into a merged, time-ordered schedule.
func BuildSchedule(iterDurations [][]float64) []ScheduledEvent {
	var events []ScheduledEvent
	for g, durs := range iterDurations {
		t := 0.0
		for _, d := range durs {
			t += d
			events = append(events, ScheduledEvent{Group: g, Time: t})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	return events
}

// TrainScheduled executes group updates sequentially in the order given by
// schedule. Each group holds one logical replica computing the group-mean
// gradient on its full batch (statistically identical to W workers plus
// all-reduce); the PS fleet applies updates in schedule order, so the
// staleness process matches what the simulated cluster would produce. The
// result's IterStat.Time carries the simulated clock.
//
// The exchange runs through cfg.Codec exactly like the concurrent trainer:
// with "int8" every push suffers the quantised wire's distortion, so the
// Fig 8 study couples real low-precision SGD dynamics to the simulated
// timeline. cfg.Overlap does not change the math here (ordering is the
// schedule's); its timing effect lives in the cluster model.
//
// With cfg.Checkpoint the run snapshots the fleet (plus each group's
// progress cursor) after every cfg.Checkpoint.Every-th schedule update.
// On resume the SAME schedule must be passed again: the trainer replays
// past it — skipping each group's first GroupIters[g] events without
// computing — and continues, bit-exact for the fp32 wire (the int8
// codec's rounding streams restart at resume, a documented divergence).
func TrainScheduled(p Problem, cfg Config, schedule []ScheduledEvent) Result {
	cfg.validate()
	template := p.NewReplica()
	tlayers := template.TrainableLayers()
	restored := resumeInto(cfg, flatParams(tlayers))
	fleet := ps.NewShardedFleet(tlayers, cfg.Solver, cfg.PSShardElems)
	resumeIters := make([]int, cfg.Groups)
	if restored != nil {
		if restored.Servers != nil {
			if err := fleet.RestoreSnapshot(layerWeightViews(tlayers), restored.Servers); err != nil {
				panic("core: resume: " + err.Error())
			}
		}
		if len(restored.GroupIters) != cfg.Groups {
			panic(fmt.Sprintf("core: resume: checkpoint has %d group cursors, run has %d groups",
				len(restored.GroupIters), cfg.Groups))
		}
		copy(resumeIters, restored.GroupIters)
	}
	ck := newCheckpointer(cfg, tlayers, fleet)

	replicas := make([]*Replica, cfg.Groups)
	batches := make([][][]int, cfg.Groups)         // per group, per iteration
	xfers := make([][]*layerXfer, cfg.Groups)      // per group, per layer wire state
	groupParams := make([][]*nn.Param, cfg.Groups) // per group flat replica params (snapshot staging)
	lanes := make([]*obs.Lane, cfg.Groups)
	iters := make([]int, cfg.Groups)
	skip := make([]int, cfg.Groups) // schedule events to replay past (resume)
	for g := range replicas {
		replicas[g] = p.NewReplica()
		lanes[g] = cfg.Trace.Lane(fmt.Sprintf("g%d", g))
		replicas[g].SetTraceLane(lanes[g])
		// Pre-draw every iteration's batch from the group's own source —
		// the same per-group RNG sequence the lazy draw consumed, so
		// trajectories are unchanged — which is what lets the prefetcher
		// stage ahead of the schedule (and the resumed run fast-forward).
		src := p.NewBatchSource(cfg.Seed + uint64(g)*0x9E37)
		batches[g] = make([][]int, cfg.Iterations)
		for i := range batches[g] {
			batches[g][i] = append([]int(nil), src.Next(cfg.GroupBatch)...)
		}
		iters[g] = resumeIters[g]
		skip[g] = resumeIters[g]
		startIngest(replicas[g], batches[g][iters[g]:], 0, 1, cfg.Prefetch)
		defer replicas[g].StopIngest()
		// Start every group from the master model.
		resps := fleet.FetchAll(g)
		weights := make([][][]float32, len(resps))
		for i, r := range resps {
			weights[i] = r.Weights
		}
		layers := replicas[g].TrainableLayers()
		InstallWeights(layers, weights)
		groupParams[g] = flatParams(layers)
		// A resumed group's replica holds the master as of its own last
		// push — stale relative to the restored master by every later
		// push from other groups. The snapshot carried that view; install
		// it over the fresh fetch (which only served the staleness books).
		if restored != nil && restored.GroupWeights != nil {
			if len(restored.GroupWeights[g]) != len(groupParams[g]) {
				panic(fmt.Sprintf("core: resume: group %d has %d weight blobs, model has %d",
					g, len(restored.GroupWeights[g]), len(groupParams[g])))
			}
			for i, p := range groupParams[g] {
				if len(restored.GroupWeights[g][i]) != p.W.Len() {
					panic(fmt.Sprintf("core: resume: group %d blob %d (%s) has %d elements, model has %d",
						g, i, p.Name, len(restored.GroupWeights[g][i]), p.W.Len()))
				}
				copy(p.W.Data, restored.GroupWeights[g][i])
			}
		}
		for t, l := range layers {
			xfers[g] = append(xfers[g], newLayerXfer(l.Params(), cfg.Codec, cfg.Seed, g, t))
		}
	}

	updates := sumInts(resumeIters) // completed updates, pacing the snapshots
	stats := make([]IterStat, 0, len(schedule))
	for seqNo, ev := range schedule {
		if ev.Group < 0 || ev.Group >= cfg.Groups {
			panic(fmt.Sprintf("core: schedule references group %d of %d", ev.Group, cfg.Groups))
		}
		g := ev.Group
		if skip[g] > 0 {
			skip[g]-- // already executed before the checkpoint: replay past it
			continue
		}
		if iters[g] >= cfg.Iterations {
			continue // schedule longer than requested training
		}
		rep := replicas[g]
		lanes[g].SetIter(iters[g])
		idx := batches[g][iters[g]]
		rep.ZeroGrad()
		var loss float64
		if len(idx) > 0 {
			loss = rep.ComputeGradientsStream(nil)
		}
		var stale float64
		lanes[g].Begin(obs.PhaseCommWait)
		for t, x := range xfers[g] {
			for i, prm := range x.params {
				x.codec.Encode(x.wires[i], prm.Grad.Data)
			}
			res := fleet.PushWires(g, t, x.codec, x.wires, x.weights)
			stale += float64(res.Staleness)
		}
		lanes[g].End(obs.PhaseCommWait)
		stats = append(stats, IterStat{
			Seq:       seqNo,
			Group:     g,
			Iter:      iters[g],
			Loss:      loss,
			Staleness: stale / float64(len(xfers[g])),
			Time:      ev.Time,
		})
		iters[g]++
		updates++
		if ck.due(updates) {
			lanes[g].Begin(obs.PhaseCkptStage)
			ck.fleetSnapshot(updates, iters, groupParams)
			lanes[g].End(obs.PhaseCkptStage)
		}
	}
	res := finalize(stats, cfg.Groups)
	res.FinalWeights = fleetWeights(fleet)
	res.Wire = fleet.WireStats()
	// Quiesce the prefetchers before reading their accounts (a short
	// schedule can leave them mid-stage; StopIngest is idempotent, so the
	// deferred stops become no-ops).
	for _, rep := range replicas {
		rep.StopIngest()
		res.Ingest = res.Ingest.Add(rep.IngestStats())
	}
	res.Ckpt = ck.close()
	return res
}

func sumInts(v []int) int {
	s := 0
	for _, x := range v {
		s += x
	}
	return s
}

// TimeToLoss scans a scheduled result for the first simulated time at
// which the running mean loss (over the trailing `smooth` updates) drops
// to target. Returns +Inf-like ok=false when never reached. This is the
// paper's Fig 8 figure of merit ("wall-clock time speedups with respect to
// a loss of 0.05").
func TimeToLoss(res Result, target float64, smooth int) (float64, bool) {
	if smooth < 1 {
		smooth = 1
	}
	window := make([]float64, 0, smooth)
	var sum float64
	for _, s := range res.Stats {
		window = append(window, s.Loss)
		sum += s.Loss
		if len(window) > smooth {
			sum -= window[0]
			window = window[1:]
		}
		if len(window) == smooth && sum/float64(smooth) <= target {
			return s.Time, true
		}
	}
	return 0, false
}

package cluster

import (
	"fmt"
	"math"

	"deep15pf/internal/comm"
	"deep15pf/internal/obs"
	"deep15pf/internal/sim"
	"deep15pf/internal/tensor"
)

// RunConfig describes one simulated training run.
type RunConfig struct {
	Nodes         int // compute nodes (parameter servers are extra)
	Groups        int // 1 = fully synchronous (no PS involved)
	BatchPerGroup int // samples per group per iteration
	Iterations    int // iterations per group
	Seed          uint64

	// Overlap pipelines per-layer gradient communication with the backward
	// pass (§III-D/E): layer l's allreduce starts when its gradients are
	// ready (NetProfile.LayerBwdFracs), serialized over the injection
	// channel, and its PS exchange follows immediately — instead of the
	// lockstep schedule where all communication waits for the full
	// backward. Lockstep with the fp32 codec reproduces the legacy model
	// draw for draw.
	Overlap bool
	// Codec shrinks the PS gradient push ("int8" ≈ 4x smaller wire, per
	// comm.Codec accounting); the model pull stays fp32. ""/"fp32" is
	// identity. Intra-group allreduce always stays fp32, as in core.
	Codec string

	// IngestIO models the input pipeline (§VI-A): every iteration each node
	// reads its batch share from the filesystem through the single-threaded
	// reader (NetProfile.SampleBytes at NetProfile.ReadEff of the machine's
	// ReadBandwidth). Off — the default — reproduces the pre-ingest model
	// draw for draw; the read time is deterministic, so turning it on never
	// perturbs the jitter RNG stream either.
	IngestIO bool
	// PrefetchIngest double-buffers the modelled reads: iteration k+1's
	// batch is staged while iteration k computes, so only the part of the
	// read that outlasts the compute phase stays on the critical path —
	// the timing-model analogue of the double-buffered data.Pipeline
	// every trainer reads through, and the knob the Fig 5 ingest A/B
	// flips.
	PrefetchIngest bool

	// SinglePS shares one parameter server across all layers (the
	// ablation for §III-E's per-layer PS design). Default false =
	// one dedicated PS per trainable layer, as in the paper.
	SinglePS bool

	// CheckpointEvery adds a model snapshot to disk every k iterations
	// (the paper's sustained numbers include this overhead; they
	// checkpointed once in 10 iterations for climate).
	CheckpointEvery int
	// AsyncCheckpoint stages the snapshot at the iteration boundary and
	// flushes it behind the iteration's compute (the internal/ckpt
	// background writer): only the write time that outlasts the compute
	// phase stays on the critical path — the output-I/O analogue of
	// PrefetchIngest, and deterministically neutral when off.
	AsyncCheckpoint bool

	// Failure optionally degrades one node mid-run (§VIII-A).
	Failure *FailureSpec

	// Trace, when non-nil, receives the modelled timeline as phase spans:
	// one lane per group ("g<k>"), each iteration leaving Ingest (exposed
	// read), Fwd/Bwd (compute split by NetProfile.FwdShare), CkptStage
	// (exposed snapshot write) and CommWait (whatever extended the
	// iteration past its compute floor) spans with simulated-seconds
	// timestamps (1 sim second = 1e9 ns). The emission is a pure function
	// of the run's deterministic timeline — same seed, same spans — which
	// is what lets the harness pin straggler-skew reports in tests.
	Trace *obs.Tracer
}

// FailureSpec injects a straggling or dead node.
type FailureSpec struct {
	Group     int     // group owning the failing node
	StartIter int     // group-local iteration when degradation starts
	Duration  int     // iterations affected (ignored when Dead)
	Slowdown  float64 // compute multiplier for that node's work
	Dead      bool    // node never completes: the group halts
}

// RunResult captures a simulated run.
type RunResult struct {
	Config        RunConfig
	WallTime      float64     // completion time of the last finished iteration
	TotalImages   int64       // samples processed machine-wide
	IterDurations [][]float64 // per group, per completed iteration
	Throughput    float64     // images/second machine-wide
	FlopRate      float64     // mean algorithmic flop/s machine-wide
	ExecFlopRate  float64     // mean executed (lane-padded) flop/s

	// §V methodology numbers (aggregated across concurrent groups).
	PeakFlopRate      float64
	SustainedFlopRate float64
	ExecPeak          float64
	ExecSustained     float64

	PSNodes          int
	PSMaxUtilization float64
	Halted           bool // a dead node stopped one or more groups

	// Communication accounting for the overlap/codec A/B: CommSeconds is
	// the total communication work performed (allreduce walltime plus PS
	// round trips, summed over layers, iterations and groups);
	// ExposedCommSeconds is the part that actually extended iterations
	// beyond compute + checkpoint — the overlap target is driving it to
	// zero while CommSeconds stays put.
	CommSeconds        float64
	ExposedCommSeconds float64

	// Input-I/O accounting, the ingest analogue of the comm split (active
	// with IngestIO): IOSeconds is the read work performed per group
	// iteration summed over the run; ExposedIOSeconds is the part left on
	// the critical path — all of it for the blocking reader, only the
	// compute-outlasting remainder with PrefetchIngest.
	IOSeconds        float64
	ExposedIOSeconds float64

	// Checkpoint accounting, the output-I/O split (active with
	// CheckpointEvery): CkptSeconds is the snapshot write work performed;
	// ExposedCkptSeconds is the part on the critical path — all of it for
	// the synchronous writer, only the compute-outlasting remainder with
	// AsyncCheckpoint (the paper's 1-in-10 snapshot, overlap-hidden).
	CkptSeconds        float64
	ExposedCkptSeconds float64
}

// Simulate runs the discrete-event model of one training run.
func Simulate(m MachineSpec, p NetProfile, cfg RunConfig) RunResult {
	if cfg.Groups < 1 || cfg.Nodes < cfg.Groups {
		panic(fmt.Sprintf("cluster: invalid config nodes=%d groups=%d", cfg.Nodes, cfg.Groups))
	}
	if cfg.BatchPerGroup < 1 || cfg.Iterations < 1 {
		panic("cluster: batch and iterations must be positive")
	}
	s := sim.New()
	rng := tensor.NewRNG(cfg.Seed + 0x5EED)

	// Parameter servers: one resource per trainable layer (or a single
	// shared one for the ablation). Only used when Groups > 1.
	var psRes []*sim.Resource
	psNodes := 0
	if cfg.Groups > 1 {
		if cfg.SinglePS {
			shared := sim.NewResource(s, "ps")
			for range p.LayerBytes {
				psRes = append(psRes, shared)
			}
			psNodes = 1
		} else {
			for l := range p.LayerBytes {
				psRes = append(psRes, sim.NewResource(s, fmt.Sprintf("ps-layer%d", l)))
			}
			psNodes = len(p.LayerBytes)
		}
	}

	groupNodes := cfg.Nodes / cfg.Groups
	batchPerNode := float64(cfg.BatchPerGroup) / float64(groupNodes)
	baseCompute := p.ComputeTime(m, batchPerNode)
	ioTime := 0.0
	if cfg.IngestIO {
		ioTime = p.ReadTime(m, batchPerNode)
	}

	// Gradient-push wire size per layer through the run's codec (the model
	// pull stays fp32, handled by PSServiceTimeAsym).
	codec, err := comm.NewCodec(cfg.Codec, cfg.Seed)
	if err != nil {
		panic("cluster: " + err.Error())
	}
	gradWire := make([]int64, len(p.LayerBytes))
	for l, bytes := range p.LayerBytes {
		gradWire[l] = codec.WireBytes(int(bytes / 4))
	}

	durations := make([][]float64, cfg.Groups)
	lanes := make([]*obs.Lane, cfg.Groups)
	for g := range lanes {
		lanes[g] = cfg.Trace.Lane(fmt.Sprintf("g%d", g)) // nil tracer → nil lanes
	}
	// simNs maps the model's simulated seconds onto the tracer's
	// nanosecond span clock.
	simNs := func(t float64) int64 { return int64(t * 1e9) }
	halted := false
	var commSeconds, exposedSeconds float64
	var ioSeconds, exposedIOSeconds float64
	var ckptSeconds, exposedCkptSeconds float64

	// Each group is an independent chain of events; PS resources couple
	// them through FIFO queueing. computePlusCkpt is the iteration's
	// non-communication floor, used to expose the comm on the critical path.
	var startIter func(g, iter int, tStart float64)
	finishIter := func(g, iter int, tStart, computePlusCkpt float64) {
		end := s.Now()
		durations[g] = append(durations[g], end-tStart)
		if over := (end - tStart) - computePlusCkpt; over > 0 {
			exposedSeconds += over
			// The stretch past the compute floor is the modelled comm on
			// the critical path — the span the real workers record while
			// blocked in await/broadcast.
			lanes[g].Record(obs.PhaseCommWait, simNs(end-over), simNs(end))
		}
		if iter+1 < cfg.Iterations {
			startIter(g, iter+1, end)
		}
	}
	startIter = func(g, iter int, tStart float64) {
		// Compute phase: the group barrier waits for the slowest node.
		compute := baseCompute * maxLogNormal(rng, groupNodes, m.ComputeJitter)
		if f := cfg.Failure; f != nil && f.Group == g && iter >= f.StartIter {
			if f.Dead {
				halted = true
				return // node never reports: group stalls forever
			}
			if iter < f.StartIter+f.Duration && f.Slowdown > 1 {
				slowed := baseCompute * f.Slowdown
				if slowed > compute {
					compute = slowed
				}
			}
		}
		// Solver/update overhead on the synchronous path is folded into
		// the compute model; checkpointing is explicit. The synchronous
		// writer puts the whole snapshot flush on the critical path; the
		// async writer (internal/ckpt's double-buffered staging) hides it
		// behind this iteration's compute, leaving only the remainder —
		// the model never perturbs the jitter RNG stream either way.
		checkpoint := 0.0
		if cfg.CheckpointEvery > 0 && iter > 0 && iter%cfg.CheckpointEvery == 0 {
			write := float64(p.TotalModelBytes) / m.CheckpointBandwidth
			ckptSeconds += write
			checkpoint = write
			if cfg.AsyncCheckpoint {
				checkpoint -= compute
				if checkpoint < 0 {
					checkpoint = 0
				}
			}
			exposedCkptSeconds += checkpoint
		}
		// Ingest phase (§VI-A): the blocking reader stages the batch before
		// the forward pass — all of ioTime sits on the critical path. With
		// PrefetchIngest the batch was staged during the previous
		// iteration's compute, so only the compute-outlasting remainder is
		// exposed (the double buffer can hide at most one compute phase) —
		// except iteration 0, whose first batch has no compute to hide
		// behind: the real pipeline's first Next always blocks for the
		// warmup stage, and so does the model.
		exposedIO := ioTime
		if cfg.PrefetchIngest && iter > 0 {
			exposedIO -= compute
			if exposedIO < 0 {
				exposedIO = 0
			}
		}
		ioSeconds += ioTime
		exposedIOSeconds += exposedIO
		floor := exposedIO + compute + checkpoint

		// Emit the iteration's modelled phase spans. The timeline is laid
		// out the way the real lockstep loop experiences it: exposed
		// ingest, then forward/backward (split by FwdShare), then the
		// exposed checkpoint stall; CommWait is recorded at finishIter
		// once the critical-path overhang is known.
		if lane := lanes[g]; lane != nil {
			lane.SetIter(iter)
			t := tStart
			if exposedIO > 0 {
				lane.Record(obs.PhaseIngest, simNs(t), simNs(t+exposedIO))
				t += exposedIO
			}
			fwd := compute * p.FwdShare
			lane.Record(obs.PhaseFwd, simNs(t), simNs(t+fwd))
			lane.Record(obs.PhaseBwd, simNs(t+fwd), simNs(t+compute))
			t += compute
			if checkpoint > 0 {
				lane.Record(obs.PhaseCkptStage, simNs(t), simNs(t+checkpoint))
			}
		}

		// Gradient allreduce per trainable layer (§III-D, MLSL), and the
		// time each layer's PS exchange may start. Lockstep: every
		// collective waits for the whole backward pass (draw-for-draw the
		// legacy model). Overlap: layer l's allreduce starts when its
		// gradients are ready — backward runs in reverse, so the deepest
		// layer leads — serialized over the injection channel, and its PS
		// push follows immediately, all in the shadow of the remaining
		// backward compute.
		nL := len(p.LayerBytes)
		psStart := make([]float64, nL)
		var arDone float64
		if cfg.Overlap {
			arFree, cum := 0.0, 0.0
			for l := nL - 1; l >= 0; l-- {
				cum += p.LayerBwdFracs[l]
				// Gradients appear only after the exposed ingest phase and
				// the layer's share of the backward pass.
				ready := exposedIO + compute*(p.FwdShare+(1-p.FwdShare)*cum)
				ar := m.AllReduceTime(rng, groupNodes, p.LayerBytes[l])
				commSeconds += ar
				if ready > arFree {
					arFree = ready
				}
				arFree += ar
				psStart[l] = arFree
			}
			arDone = arFree
		} else {
			comm := 0.0
			for _, bytes := range p.LayerBytes {
				ar := m.AllReduceTime(rng, groupNodes, bytes)
				commSeconds += ar
				comm += ar
			}
			arDone = exposedIO + compute + comm
			for l := range psStart {
				psStart[l] = arDone + checkpoint
			}
		}

		if cfg.Groups == 1 {
			end := arDone + checkpoint // lockstep: ingest + compute + comm + checkpoint
			if cfg.Overlap {
				end = arDone
				if busy := exposedIO + compute; busy > end {
					end = busy
				}
				end += checkpoint
			}
			s.Schedule(end, func() { finishIter(g, iter, tStart, floor) })
			return
		}
		// Hybrid: the group root exchanges each layer with its dedicated
		// PS (§III-E, Fig 4), then broadcasts the new model to the group.
		// Events run in time order, so the last response to arrive fires
		// the broadcast at exactly the max response time (never before the
		// backward pass and checkpoint have finished).
		pending := len(psRes)
		launch := func(l int, res *sim.Resource, sendAt float64) {
			s.Schedule(sendAt, func() {
				sendLat := m.PSLatency(rng)
				s.Schedule(sendLat, func() {
					done := res.Request(m.PSServiceTimeAsym(gradWire[l], p.LayerBytes[l]))
					retLat := m.PSLatency(rng)
					s.ScheduleAt(done, func() {
						s.Schedule(retLat, func() {
							commSeconds += s.Now() - sendAt - tStart
							pending--
							if pending == 0 {
								doBc := func() {
									bc := m.BroadcastTime(rng, groupNodes, p.TotalModelBytes)
									commSeconds += bc
									s.Schedule(bc, func() { finishIter(g, iter, tStart, floor) })
								}
								if min := tStart + floor; s.Now() < min {
									s.ScheduleAt(min, doBc) // overlap: backward still running
								} else {
									doBc()
								}
							}
						})
					})
				})
			})
		}
		for l, res := range psRes {
			launch(l, res, psStart[l])
		}
	}

	for g := 0; g < cfg.Groups; g++ {
		g := g
		s.Schedule(0, func() { startIter(g, 0, 0) })
	}
	s.Run()

	res := RunResult{
		Config: cfg, IterDurations: durations, PSNodes: psNodes, Halted: halted,
		CommSeconds: commSeconds, ExposedCommSeconds: exposedSeconds,
		IOSeconds: ioSeconds, ExposedIOSeconds: exposedIOSeconds,
		CkptSeconds: ckptSeconds, ExposedCkptSeconds: exposedCkptSeconds,
	}
	var totalIters int
	for g := range durations {
		totalIters += len(durations[g])
		// Iterations run back to back, so the group's finish time is the
		// sum of its iteration durations.
		if end := sumUpTo(durations[g]); end > res.WallTime {
			res.WallTime = end
		}
	}
	res.TotalImages = int64(totalIters) * int64(cfg.BatchPerGroup)
	if res.WallTime > 0 {
		res.Throughput = float64(res.TotalImages) / res.WallTime
		res.FlopRate = float64(res.TotalImages) * p.FlopsPerSample / res.WallTime
		res.ExecFlopRate = float64(res.TotalImages) * p.ExecPerSample / res.WallTime
	}
	// §V peak/sustained: per-group iteration rates aggregated over the
	// concurrently running groups.
	iterFlops := float64(cfg.BatchPerGroup) * p.FlopsPerSample
	iterExec := float64(cfg.BatchPerGroup) * p.ExecPerSample
	for _, d := range durations {
		if len(d) == 0 {
			continue
		}
		window := 10
		if window > len(d) {
			window = len(d)
		}
		g := float64(cfg.Groups)
		if v := peakRate(d, iterFlops) * g; v > res.PeakFlopRate {
			res.PeakFlopRate = v
		}
		if v := sustainedRate(d, iterFlops, window) * g; v > res.SustainedFlopRate {
			res.SustainedFlopRate = v
		}
		if v := peakRate(d, iterExec) * g; v > res.ExecPeak {
			res.ExecPeak = v
		}
		if v := sustainedRate(d, iterExec, window) * g; v > res.ExecSustained {
			res.ExecSustained = v
		}
	}
	horizon := res.WallTime
	for _, r := range psRes {
		if u := r.Utilization(horizon); u > res.PSMaxUtilization {
			res.PSMaxUtilization = u
		}
		if cfg.SinglePS {
			break // all entries alias the same resource
		}
	}
	return res
}

func sumUpTo(d []float64) float64 {
	var s float64
	for _, v := range d {
		s += v
	}
	return s
}

// MeanIterTime returns the average iteration duration across groups.
func (r RunResult) MeanIterTime() float64 {
	var sum float64
	n := 0
	for _, d := range r.IterDurations {
		for _, v := range d {
			sum += v
			n++
		}
	}
	if n == 0 {
		return math.Inf(1)
	}
	return sum / float64(n)
}

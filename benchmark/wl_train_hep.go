package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// hepSync is train_hep_sync: core.TrainSync on hep.SmallConfig, W=2, over
// events written to shards and read back in random order, with an
// asynchronous checkpoint every ckptEvery iterations.
type hepSync struct {
	model   HepModel
	ds      *HepDataset
	shards  *ShardSet
	problem Problem

	events, iters, warmIters, batch, ckptEvery int

	genSec float64 // generation time in setup, for hep.generate_samples_per_s
	runs   int     // TrainSync calls so far, for fresh checkpoint directories
	prints []string
	target float64 // loss target actually used, fixed by the first repetition
	kAt    int     // first iteration at which the target is met
	last   TrainResult
	dir    string
}

func newHepSync() workload { return &hepSync{} }

// Loss-target calibration: the 10-iteration mean loss must first drop to
// the target between 30% and 70% of a repetition, so that time-to-loss is
// neither a start-up artefact nor the whole run. lossTarget0 is where the
// search starts; it moves in lossStep steps and the value used is recorded.
const (
	lossTarget0 = 0.20
	lossStep    = 0.05
	lossSmooth  = 10
)

func (h *hepSync) setup(c *runCtx) error {
	h.model = hepSmall()
	h.events = c.scale(2048, 128)
	h.iters = c.scale(200, 8)
	h.warmIters = c.scale(20, 3)
	h.batch = 32
	h.ckptEvery = c.scale(50, 4)

	t0 := time.Now()
	h.ds = hepGenerate(h.model, h.events, c.seed)
	h.genSec = time.Since(t0).Seconds()

	h.dir = filepath.Join(c.dir, fmt.Sprintf("hep-%d", time.Now().UnixNano()))
	paths, err := h.ds.SaveShards(filepath.Join(h.dir, "shards"), 8)
	if err != nil {
		return err
	}
	if h.shards, err = openShards(paths); err != nil {
		return err
	}
	h.problem = hepProblem(h.ds, h.model, c.seed+1, h.shards)
	h.train(c, h.warmIters, 2, newAdam(hepLR), nil, -1) // warm-up repetition
	return nil
}

func (h *hepSync) teardown() {
	if h.shards != nil {
		h.shards.Close()
		h.shards = nil
	}
	os.RemoveAll(h.dir)
}

// hepLR is ADAM's learning rate on this workload.
const hepLR = 2e-3

// train runs one TrainSync call and returns its result and wall seconds.
func (h *hepSync) train(c *runCtx, iters, workers int, solver Solver, tr *Tracer, parent int) (TrainResult, float64) {
	h.runs++
	ckptDir := filepath.Join(h.dir, fmt.Sprintf("ckpt-%d", h.runs))
	defer os.RemoveAll(ckptDir)
	cfg := TrainConfig{
		Groups: 1, WorkersPerGroup: workers, GroupBatch: h.batch, Iterations: iters,
		Solver: solver, Seed: c.seed + 2, Prefetch: 1,
		Checkpoint: CheckpointConfig{Dir: ckptDir, Every: h.ckptEvery, Async: true, Keep: 2},
		Trace:      tr,
	}
	id := c.spans.begin("core", "TrainSync", parent, h.runs)
	t0 := time.Now()
	res := trainSync(h.problem, cfg)
	wall := time.Since(t0).Seconds()
	c.spans.end(id)
	return res, wall
}

// countUpdates books every iteration as an operation; one with a
// non-finite loss failed.
func countUpdates(c *runCtx, res TrainResult) {
	var bad int64
	for _, s := range res.Stats {
		if math.IsNaN(s.Loss) || math.IsInf(s.Loss, 0) {
			bad++
		}
	}
	c.ops(int64(len(res.Stats)), bad)
}

// firstBelow returns the first index k at which the mean of losses
// [k-smooth+1, k] is at or below target, or -1.
func firstBelow(losses []float64, target float64, smooth int) int {
	var sum float64
	for k, l := range losses {
		sum += l
		if k >= smooth {
			sum -= losses[k-smooth]
		}
		if k >= smooth-1 && sum/float64(smooth) <= target {
			return k
		}
	}
	return -1
}

// calibrateTarget picks the loss target: of the multiples of lossStep whose
// first crossing lies within 30–70% of the run, the one nearest start; if
// no target crosses inside that window, the one whose crossing lies nearest
// to it. Losses are exact by seed, so every repetition and both tracing
// modes arrive at the same pair. k is -1 only if no target is ever met.
func calibrateTarget(losses []float64, start float64, smooth int) (target float64, k int) {
	lo, hi := int(0.3*float64(len(losses))), int(0.7*float64(len(losses)))
	outside := func(k int) int { return max(lo-k, k-hi, 0) }
	target, k = start, -1
	for j := 1; j <= 80; j++ {
		t := lossStep * float64(j)
		kt := firstBelow(losses, t, smooth)
		if kt < 0 {
			continue
		}
		better := k < 0 || outside(kt) < outside(k) ||
			(outside(kt) == outside(k) && math.Abs(t-start) < math.Abs(target-start))
		if better {
			target, k = t, kt
		}
	}
	return target, k
}

// book does one full repetition's bookkeeping and returns the rate of the
// whole call. In a traced run it also records the repetition's time to
// loss.
func (h *hepSync) book(c *runCtx, res TrainResult, wall float64) (sps float64) {
	countUpdates(c, res)
	h.prints = append(h.prints, weightFingerprint(res.FinalWeights))
	h.last = res
	losses := lossesInOrder(res)
	if h.target == 0 {
		h.target, h.kAt = calibrateTarget(losses, lossTarget0, min(lossSmooth, len(losses)))
	}
	k := firstBelow(losses, h.target, min(lossSmooth, len(losses)))
	if k != h.kAt {
		c.check("loss_crossing_repeats", false, "target %.2f met at iteration %d, first repetition met it at %d", h.target, k, h.kAt)
	}
	if c.trace {
		c.add("core.time_to_loss_s", wall*float64(h.kAt+1)/float64(h.iters))
	}
	return float64(h.iters*h.batch) / wall
}

// measure runs one repetition: the rate of the whole TrainSync call, and
// the time one update took in it.
func (h *hepSync) measure(c *runCtx, rep int) error {
	res, wall := h.train(c, h.iters, 2, newAdam(hepLR), nil, -1)
	c.add("samples_per_s", h.book(c, res, wall))
	c.add("time_to_result_ms", wall/float64(h.iters)*1e3)
	return nil
}

func (h *hepSync) finish(c *runCtx) {
	same := true
	for _, p := range h.prints {
		same = same && p == h.prints[0]
	}
	c.check("fingerprint_repeats", same && len(h.prints) > 0,
		"final-weight fingerprints over %d repetitions (traced and untraced): %s", len(h.prints), strings.Join(slices.Compact(slices.Sorted(slices.Values(h.prints))), " "))
	c.check("loss_target_met", h.kAt >= 0, "10-iteration mean loss ≤ %.2f first at iteration %d of %d", h.target, h.kAt, h.iters)
	if len(h.prints) > 0 {
		c.info["fingerprint"] = h.prints[0]
	}
	c.info["loss_target"] = fmt.Sprintf("%.2f", h.target)
	c.info["updates_to_loss"] = fmt.Sprint(h.kAt + 1)
}

// splitTrainTrace turns a program tracer's worker lanes into the core
// per-iteration split. Lanes of prefetch goroutines (".ingest") overlap the
// workers and are left out; the rest are averaged, so the five parts sum to
// wall ÷ iterations.
func splitTrainTrace(c *runCtx, tr *Tracer, wall float64, iters int) traceSummary {
	sum := summarizeTrace(tr, func(lane string) bool { return !strings.HasSuffix(lane, ".ingest") })
	per := func(phase string) float64 {
		return sum.PhaseSec[phase] / float64(max(sum.Lanes, 1)) / float64(iters) * 1e3
	}
	fwd, bwd, wait, apply := per("Fwd"), per("Bwd"), per("CommWait"), per("OptApply")
	c.add("core.fwd_ms_per_iter", fwd)
	c.add("core.bwd_ms_per_iter", bwd)
	c.add("core.commwait_ms_per_iter", wait)
	c.add("core.optapply_ms_per_iter", apply)
	c.add("core.self_ms_per_iter", wall/float64(iters)*1e3-fwd-bwd-wait-apply)
	c.add("obs.spans_per_iter", float64(sum.Spans)/float64(iters))
	c.add("obs.dropped_spans", float64(sum.Dropped))
	return sum
}

func (h *hepSync) traced(c *runCtx) error {
	root := c.spans.begin("benchmark", "repetitions", -1, 0)
	// Untraced and traced repetitions alternate in one process, so the
	// tracing overhead is a paired difference, not two hosts' moods.
	var plain, withTrace []float64
	var tr *Tracer
	var wall float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < 0.5*c.seconds; i++ {
		res, w := h.train(c, h.iters, 2, newAdam(hepLR), nil, root)
		plain = append(plain, h.book(c, res, w))
		tr = newTracer()
		res, wall = h.train(c, h.iters, 2, newAdam(hepLR), tr, root)
		withTrace = append(withTrace, h.book(c, res, wall))
		splitTrainTrace(c, tr, wall, h.iters)
	}
	c.set("obs.trace_overhead_frac", 1-median(withTrace)/median(plain))
	if c.outDir != "" {
		if err := tr.WriteTraceFile(filepath.Join(c.outDir, c.workload+".obs.trace.json")); err != nil {
			return err
		}
	}
	res := h.last
	iters := float64(h.iters)
	c.set("data.stage_ms_per_iter", res.Ingest.StageSeconds/iters*1e3)
	c.set("data.exposed_wait_ms_per_iter", res.Ingest.WaitSeconds/iters*1e3)
	c.set("data.overlap_frac", res.Ingest.Overlap())
	if n := float64(res.Ckpt.Snapshots); n > 0 {
		c.set("ckpt.stage_ms_per_snapshot", res.Ckpt.StageSeconds/n*1e3)
		c.set("ckpt.write_ms_per_snapshot", res.Ckpt.WriteSeconds/n*1e3)
		c.set("ckpt.exposed_ms_per_snapshot", res.Ckpt.ExposedSeconds/n*1e3)
	}
	c.check("checkpoints_written", res.Ckpt.Snapshots == int64(h.iters/h.ckptEvery),
		"%d snapshots in %d iterations at one per %d", res.Ckpt.Snapshots, h.iters, h.ckptEvery)
	// The bypass prediction: a synchronous run has no parameter server.
	c.set("ps.grad_wire_kb_per_update", float64(res.Wire.GradBytes)/iters/1e3)
	c.set("ps.weight_wire_kb_per_update", float64(res.Wire.WeightBytes)/iters/1e3)
	c.check("sync_moves_no_ps_bytes", res.Wire.GradBytes == 0 && res.Wire.WeightBytes == 0 && res.Wire.Pushes == 0,
		"parameter-server traffic on a synchronous run: %d gradient bytes, %d weight bytes", res.Wire.GradBytes, res.Wire.WeightBytes)
	c.set("core.updates_to_loss", float64(h.kAt+1))
	c.set("core.final_loss", res.FinalLoss)
	c.set("nn.hep_train_gflops", trainFLOPsPerSample(hepBuildNet(h.model, 1))*median(plain)/1e9)

	// Steady-state allocations per iteration: a long run minus a short one
	// cancels what a TrainSync call allocates once (replicas, plans).
	before := mallocs()
	h.train(c, h.warmIters, 2, newAdam(hepLR), nil, root)
	short := mallocs() - before
	before = mallocs()
	res, wall = h.train(c, h.iters, 2, newAdam(hepLR), nil, root)
	long := mallocs() - before
	plain = append(plain, h.book(c, res, wall))
	c.set("core.allocs_per_iter", (float64(long)-float64(short))/float64(h.iters-h.warmIters))

	// The plain single-worker run of the same task.
	res, wall = h.train(c, h.iters, 1, newAdam(hepLR), nil, root)
	countUpdates(c, res)
	c.set("core.w2_over_w1", median(plain)/(float64(h.iters*h.batch)/wall))
	c.spans.end(root)

	h.probes(c)
	return nil
}

// probes times each layer directly at this workload's shapes.
func (h *hepSync) probes(c *runCtx) {
	root := c.spans.begin("benchmark", "probes", -1, 0)
	defer c.spans.end(root)
	probe := func(layer, name string, fn func()) { c.probe(root, layer, name, fn) }
	b := c.budget(300 * time.Millisecond)
	probe("tensor", "Gemm", func() {
		// The largest hep-small conv lowering: conv2, 16 filters over a
		// 16×16 plane of 16·3·3 patches.
		c.set("tensor.gemm_gflops_t1", probeGemm(16, 256, 144, 1, b))
		c.set("tensor.gemm_gflops_t2", probeGemm(16, 256, 144, 2, b))
	})
	probe("tensor", "ParallelFor", func() {
		us, allocs := probeParallelFor(b)
		c.set("tensor.parallelfor_us", us)
		c.set("tensor.parallelfor_allocs", allocs)
	})
	net := hepBuildNet(h.model, 1)
	probe("nn", "Plan.Forward/Backward b16", func() {
		fwd, bwd, allocs := probeTrainStep(net, h.batch/2, c.scale(50, 3), 2*b)
		c.set("nn.hep_fwd_ms_b16", fwd)
		c.set("nn.hep_bwd_ms_b16", bwd)
		c.set("nn.step_allocs", allocs)
	})
	inC, size := 3, h.model.ImageSize
	for u := 1; u <= h.model.ConvUnits && u <= 4; u++ {
		probe("nn", fmt.Sprintf("conv%d", u), func() {
			fwd, bwd := probeConvLayer(fmt.Sprintf("conv%d", u), inC, h.model.Filters, size, h.batch/2, b)
			c.set(fmt.Sprintf("nn.hep_conv%d_fwd_ms", u), fwd)
			c.set(fmt.Sprintf("nn.hep_conv%d_bwd_ms", u), bwd)
		})
		inC, size = h.model.Filters, size/2
	}
	probe("opt", "Adam.Step", func() { c.set("opt.adam_step_us_hep", probeAdamStep(h.problem, h.batch/2, b)) })
	probe("comm", "AllReduceMean", func() { c.set("comm.allreduce_us_hep_w2", probeAllReduce(net.NumParams(), b)) })
	probe("data", "ReadBatchInto", func() {
		sec, _ := probeShardRead(h.shards, h.batch/2, true, b)
		c.set("data.read_batch_us_b16", sec*1e6)
	})
	c.set("hep.generate_samples_per_s", float64(h.events)/h.genSec)
}

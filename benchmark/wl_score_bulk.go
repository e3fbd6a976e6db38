package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// scoreBulk is score_bulk: bulk.Engine.Score at batch 256 over events in
// eight shards, one fp32 pass then one int8 pass per repetition.
type scoreBulk struct {
	model  HepModel
	net    *Network
	ds     *HepDataset
	shards *ShardSet
	lm32   *ServeModel
	lm8    *ServeModel
	eng32  *BulkEngine
	eng8   *BulkEngine
	dir    string

	events, batch int
	genSec        float64

	prev32    BulkPredictions // the fp32 pass before the current one
	pred32    BulkPredictions
	pred8     BulkPredictions
	batches   int
	agreement float64 // share of events on which the int8 label equals the fp32 label
	mismatch  int64   // fp32 predictions that differ from the naive loop's
}

func newScoreBulk() workload { return &scoreBulk{} }

// minAgreement is the share of events on which the int8 label must equal
// the fp32 label.
const minAgreement = 0.98

// bulkTrainIters is how many updates the scored model is trained for: one
// pass over the 4096 events at batch 32. After 100 updates the agreement
// read 0.9895 to 0.9995 over 24 seeds.
const bulkTrainIters = 128

func (s *scoreBulk) setup(c *runCtx) error {
	s.model = hepSmall()
	s.events = c.scale(4096, 128)
	s.batch = c.scale(256, 32)
	s.net = hepBuildNet(s.model, c.seed+1)

	t0 := time.Now()
	s.ds = hepGenerate(s.model, s.events, c.seed)
	s.genSec = time.Since(t0).Seconds()

	s.dir = filepath.Join(c.dir, fmt.Sprintf("bulk-%d", time.Now().UnixNano()))
	paths, err := s.ds.SaveShards(filepath.Join(s.dir, "shards"), 8)
	if err != nil {
		return err
	}
	if s.shards, err = openShards(paths); err != nil {
		return err
	}
	s.pred32 = BulkPredictions{Conf: make([]float32, s.events), Label: make([]int32, s.events)}
	s.pred8 = BulkPredictions{Conf: make([]float32, s.events), Label: make([]int32, s.events)}
	// The model is trained for a moment first. At its initial weights it
	// either calls every event the same class or leaves most of them on
	// the class boundary, where int8 rounding flips labels that mean
	// nothing: agreement read 0.949 to 1.000 by seed.
	trained := trainSync(hepProblem(s.ds, s.model, c.seed+1, nil), TrainConfig{
		Groups: 1, WorkersPerGroup: 2, GroupBatch: 32, Iterations: c.scale(bulkTrainIters, 4),
		Solver: newAdam(hepLR), Seed: c.seed + 2, Prefetch: 1,
	})
	if err := setWeights(s.net, trained.FinalWeights); err != nil {
		return err
	}
	ckpt := filepath.Join(s.dir, "model.d15w")
	if err := saveWeights(ckpt, s.net); err != nil {
		return err
	}
	if s.lm32, err = loadHepCheckpoint(s.model, ckpt, false); err != nil {
		return err
	}
	if s.lm8, err = loadHepCheckpoint(s.model, ckpt, true); err != nil {
		return err
	}
	calib := make([]int, 64)
	for i := range calib {
		calib[i] = i
	}
	x, _ := s.ds.Batch(calib)
	if err := s.lm8.Calibrate(x); err != nil {
		return err
	}
	if s.eng32, err = newBulkEngine(s.lm32, s.batch, nil); err != nil {
		return err
	}
	if s.eng8, err = newBulkEngine(s.lm8, s.batch, nil); err != nil {
		return err
	}
	// Warm-up repetition: one call each over the first shard compiles the
	// plans at the full batch size and fills the staging ring.
	first, err := openShards(paths[:1])
	if err != nil {
		return err
	}
	defer first.Close()
	var warm BulkPredictions
	if _, err := s.eng32.Score(first, &warm); err != nil {
		return err
	}
	_, err = s.eng8.Score(first, &warm)
	return err
}

func (s *scoreBulk) teardown() {
	if s.shards != nil {
		s.shards.Close()
		s.shards = nil
	}
	os.RemoveAll(s.dir)
}

// pass scores the whole set once on eng, in one Score call, and holds the
// predictions against the references: fp32 bitwise against the naive loop,
// int8 by label agreement with fp32.
func (s *scoreBulk) pass(c *runCtx, eng *BulkEngine, pred *BulkPredictions, name string, parent, rep int) (BulkResult, error) {
	id := c.spans.begin("bulk", name, parent, rep)
	res, err := eng.Score(s.shards, pred)
	c.spans.end(id)
	if err != nil {
		return res, err
	}
	var bad int64
	if res.Samples != s.events {
		bad = int64(s.events - res.Samples)
	}
	if pred == &s.pred32 {
		// Every fp32 pass must repeat the one before it bit for bit; the
		// last one is held against the naive loop when the run ends, so
		// all of them are.
		if s.prev32.Label != nil {
			bad += differing(pred, &s.prev32)
		} else {
			s.prev32 = BulkPredictions{Conf: make([]float32, s.events), Label: make([]int32, s.events)}
		}
		copy(s.prev32.Label, pred.Label)
		copy(s.prev32.Conf, pred.Conf)
	} else {
		agree := 0
		for i := range pred.Label {
			if pred.Label[i] == s.pred32.Label[i] {
				agree++
			}
		}
		s.agreement = float64(agree) / float64(len(pred.Label))
	}
	s.batches = res.Batches
	s.mismatch += bad
	c.ops(int64(s.events), bad)
	return res, nil
}

// differing counts the events on which two prediction sets are not bitwise
// equal.
func differing(a, b *BulkPredictions) (n int64) {
	for i := range a.Label {
		if a.Label[i] != b.Label[i] || a.Conf[i] != b.Conf[i] {
			n++
		}
	}
	return n
}

// repetition is one fp32 pass then one int8 pass over the whole set.
func (s *scoreBulk) repetition(c *runCtx, e32, e8 *BulkEngine, parent, rep int) (fp32, int8 BulkResult, err error) {
	if fp32, err = s.pass(c, e32, &s.pred32, "Score fp32", parent, rep); err != nil {
		return
	}
	int8, err = s.pass(c, e8, &s.pred8, "Score int8", parent, rep)
	return
}

// measure runs one repetition: the fp32 pass's rate is one sample of
// samples_per_s, the int8 pass's duration one of time_to_result_ms.
func (s *scoreBulk) measure(c *runCtx, rep int) error {
	fp32, int8, err := s.repetition(c, s.eng32, s.eng8, -1, rep)
	if err != nil {
		return err
	}
	c.add("samples_per_s", fp32.SamplesPerSec)
	c.add("time_to_result_ms", int8.Seconds*1e3)
	return nil
}

func (s *scoreBulk) finish(c *runCtx) {
	label, conf, err := naiveScore(s.net, s.events, s.batch, readShards(s.shards))
	if err != nil {
		c.check("naive_loop_ran", false, "%v", err)
		return
	}
	bad := differing(&s.pred32, &BulkPredictions{Label: label, Conf: conf})
	s.mismatch += bad
	c.ops(0, bad)
	c.check("fp32_equals_naive_loop", s.mismatch == 0, "%d fp32 predictions differ bitwise between passes or from a naive batched loop over the same %d events", s.mismatch, s.events)
	c.check("int8_label_agreement", s.agreement >= minAgreement,
		"int8 labels equal fp32 on %.4f of %d events (at least %.2f required)", s.agreement, s.events, minAgreement)
	c.info["events_per_pass"] = fmt.Sprint(s.events)
}

func (s *scoreBulk) traced(c *runCtx) error {
	tr32, tr8 := newTracer(), newTracer()
	t32, err := newBulkEngine(s.lm32, s.batch, tr32)
	if err != nil {
		return err
	}
	t8, err := newBulkEngine(s.lm8, s.batch, tr8)
	if err != nil {
		return err
	}
	if _, _, err := s.repetition(c, t32, t8, -1, -1); err != nil { // warm the traced engines
		return err
	}
	root := c.spans.begin("benchmark", "repetitions", -1, 0)
	var plain, withTrace, plain8 []float64
	tracedBatches := 0
	start := time.Now()
	// A pair of repetitions takes 8 s, so the whole allowance goes to them:
	// fewer than three pairs say nothing about a difference of a few percent.
	for rep := 0; rep == 0 || time.Since(start).Seconds() < c.seconds; rep++ {
		fp32, int8, err := s.repetition(c, s.eng32, s.eng8, root, rep)
		if err != nil {
			return err
		}
		plain, plain8 = append(plain, fp32.SamplesPerSec), append(plain8, int8.SamplesPerSec)
		if fp32, int8, err = s.repetition(c, t32, t8, root, rep); err != nil {
			return err
		}
		withTrace = append(withTrace, fp32.SamplesPerSec)
		tracedBatches += fp32.Batches + int8.Batches
	}
	c.spans.end(root)
	c.set("obs.trace_overhead_frac", 1-median(withTrace)/median(plain))
	sum32, sum8 := summarizeTrace(tr32, nil), summarizeTrace(tr8, nil)
	c.set("obs.spans_per_iter", float64(sum32.Spans+sum8.Spans)/float64(max(tracedBatches, 1)))
	c.set("obs.dropped_spans", float64(sum32.Dropped+sum8.Dropped))
	if c.outDir != "" {
		if err := tr32.WriteTraceFile(filepath.Join(c.outDir, c.workload+".obs.trace.json")); err != nil {
			return err
		}
	}
	c.set("bulk.batches", float64(s.batches))
	c.set("bulk.int8_over_fp32", median(plain8)/median(plain))
	c.set("quant.int8_label_agreement", s.agreement)
	c.set("hep.generate_samples_per_s", float64(s.events)/s.genSec)

	probes := c.spans.begin("benchmark", "probes", -1, 0)
	defer c.spans.end(probes)
	var perr error
	probe := func(layer, name string, fn func() error) {
		if perr == nil {
			c.probe(probes, layer, name, func() { perr = fn() })
		}
	}
	b := c.budget(400 * time.Millisecond)
	probe("tensor", "Gemm", func() error {
		c.set("tensor.gemm_gflops_t1", probeGemm(16, 256, 144, 1, b))
		c.set("tensor.gemm_gflops_t2", probeGemm(16, 256, 144, 2, b))
		c.set("tensor.gemm_s8_gops_t1", probeGemmS8(16, 256, 144, b))
		return nil
	})
	probe("nn", "Plan.Forward b256", func() error {
		c.set("nn.hep_fwd_ms_b256", probeInfer(s.net, s.batch, false, 2*b))
		c.set("nn.hep_int8_fwd_ms_b256", probeInfer(s.net, s.batch, true, 2*b))
		return nil
	})
	probe("data", "ReadBatchInto sequential", func() error {
		sec, bytes := probeShardRead(s.shards, s.batch, false, b)
		c.set("data.seq_read_mb_per_s", float64(bytes)/sec/1e6)
		return nil
	})
	// The same inputs through the online path, and through raw InferBatch:
	// the bulk-versus-online evidence of ROADMAP item 1.
	probe("serve", "Submit ×16 and InferBatch", func() error {
		eng, err := newEngine(s.lm32, fleetMaxBatch, 2, nil)
		if err != nil {
			return err
		}
		defer eng.Close()
		per := s.ds.Images.Len() / s.events
		inputs := make([]*Tensor, min(s.events, 256))
		for i := range inputs {
			inputs[i] = tensorFromSlice(s.ds.Images.Data[i*per:(i+1)*per], s.ds.Images.Shape[1:]...)
		}
		submit := func(i int) bool { _, err := eng.Submit(inputs[i]); return err == nil }
		closedLoop(submit, len(inputs), fleetClients, b/2, 1)
		res := closedLoop(submit, len(inputs), fleetClients, 4*b, 2)
		c.ops(int64(res.Sent), int64(res.Failed))
		c.set("serve.online_samples_per_s", res.rate())

		idx := make([]int, s.batch)
		for i := range idx {
			idx[i] = i
		}
		x, _ := s.ds.Batch(idx)
		rate, err := probeInferBatch(eng, x, 2*b)
		c.set("serve.inferbatch_samples_per_s", rate)
		c.set("bulk.engine_over_inferbatch", median(plain)/rate)
		return err
	})
	return perr
}

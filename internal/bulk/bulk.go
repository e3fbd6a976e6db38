// Package bulk is the throughput half of the serving story: offline batch
// inference over unlabeled shard sets, feeding the pseudo-label flywheel.
//
// The online stack (internal/serve, internal/netserve) is tuned for tail
// latency — small dynamic batches, linger timers, per-request envelopes,
// hedging. Scoring millions of unlabeled samples is the opposite problem:
// nobody is waiting on any single answer, so every latency mechanism is
// pure overhead. The Engine here strips all of it out:
//
//   - shards stream through data.Pipeline prefetch (I/O hidden behind
//     compute, same machinery as training ingest);
//   - large fixed-size batches run straight into the compiled plans via
//     serve.SharedInferer — no queue, no linger, no per-request envelope,
//     and not even the online path's per-batch output copy; the plan cuts
//     a batch into tiles of 32 samples and runs them on one lane per
//     kernel thread (nn/tile.go), which is where the host's cores come in;
//   - batch tensors are pooled slot staging, so the warm loop touches the
//     allocator exactly zero times (gated by test);
//   - confidence extraction (nn.SoftmaxTop1) runs in place on the
//     plan-owned logits.
//
// ScoreFleet (fleet.go) is the scale-out form: shards fan out across
// netserve backends through a work-stealing queue, whole [N, …] batches on
// the wire, with shard-granular requeue so a backend dying mid-run loses
// zero shards. WritePseudoShards (pseudo.go) thresholds the predictions
// and writes survivors back as labeled shards for the next training run —
// the label factory of ROADMAP item 1 (pseudo-labeling per Kingma et al.;
// offline catalog scoring per Khan et al.'s DES pipeline).
package bulk

import (
	"fmt"
	"time"

	"deep15pf/internal/data"
	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

// Config parameterises an Engine or a fleet run.
type Config struct {
	// Batch is the fixed inference batch size: the unit of staging and of
	// the plan's one fork-join, not of execution (the plan runs it as
	// tiles of 32, so 32 or fewer is one tile on one core). Bigger batches
	// amortise that join and the pipeline hand-off further but round the
	// tail up and grow the staging ring. An untrained hep-small on two
	// threads scores 15K samples/s at 32, 22K at 64 and 128, 24K at 256
	// (the default), 27K at 512 and 1024; int8 51K, 68K, 79K, 74K, 90K and
	// 93K (EXPERIMENTS.md, the batch sweep after the pooled epilogue). The
	// faster the pass, the more the per-batch join costs (ROADMAP item 1),
	// so int8's knee sits past 256.
	Batch int
	// Lookahead is how many staged batches the prefetcher may run ahead
	// of compute (ring size Lookahead+1). Default 2.
	Lookahead int
	// Trace attaches phase spans (Ingest on the stager lane, Infer on the
	// compute lane, per-shard iter tags on fleet worker lanes). nil
	// records nothing.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives bulk_samples (counter),
	// bulk_batches (counter) and bulk_samples_per_sec (gauge).
	Metrics *obs.Registry
	// InShape is the model's per-sample input shape, required by ScoreFleet
	// only: the backend validates batched wire tensors dim-for-dim against
	// the model input, so flat [n, featLen] frames would be refused for a
	// conv model. Engine ignores it (the local replica reports its own
	// shape). Nil defaults to [featLen].
	InShape []int
}

func (c Config) withDefaults() Config {
	if c.Batch <= 0 {
		c.Batch = 256
	}
	if c.Batch > serve.MaxBulkBatch {
		c.Batch = serve.MaxBulkBatch
	}
	if c.Lookahead < 1 {
		c.Lookahead = 2
	}
	return c
}

// Predictions holds per-sample scoring results, indexed like the scored
// ShardSet. Buffers grow on demand and are reused across runs.
type Predictions struct {
	Conf  []float32 // top-1 softmax probability
	Label []int32   // argmax class
}

func (p *Predictions) grow(n int) {
	if cap(p.Conf) < n {
		p.Conf = make([]float32, n)
	}
	if cap(p.Label) < n {
		p.Label = make([]int32, n)
	}
	p.Conf = p.Conf[:n]
	p.Label = p.Label[:n]
}

// Result summarises one scoring run.
type Result struct {
	Samples       int
	Batches       int
	Seconds       float64
	SamplesPerSec float64
}

// Engine scores shard sets through one local replica. Single-goroutine for
// its caller, like the replica under it — one Score at a time, one batch
// in the plan at a time; the kernel threads come in inside the plan's
// Forward, as lanes joined before it returns. Reuse across Score calls
// keeps the compiled plans, their lanes and the staging warm.
type Engine struct {
	cfg     Config
	rep     serve.Model
	shared  serve.SharedInferer // non-nil: the copy-free datapath
	inShape []int
	inLen   int
	classes int

	arena *tensor.Arena
	slots []*slot
	lane  *obs.Lane
}

// slot is one staged batch in the prefetch ring.
type slot struct {
	stage *tensor.Staging
	x     *tensor.Tensor // view for the staged size, set by the stager
	lo, n int            // global sample range [lo, lo+n)
}

// NewEngine mints one dedicated replica from m and wraps it for bulk
// scoring. The model must be a classifier — a rank-1 [classes] output —
// because the factory's product is an argmax label per sample.
func NewEngine(m *serve.LoadedModel, cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	rep, err := m.NewReplica()
	if err != nil {
		return nil, err
	}
	out := rep.OutShape()
	if len(out) != 1 || out[0] < 2 {
		return nil, fmt.Errorf("bulk: model %q output shape %v is not classification logits", m.ModelArch, out)
	}
	e := &Engine{
		cfg:     cfg,
		rep:     rep,
		inShape: rep.InShape(),
		classes: out[0],
		arena:   tensor.NewArena(),
		lane:    cfg.Trace.Lane("bulk"),
	}
	e.shared, _ = rep.(serve.SharedInferer)
	e.inLen = 1
	for _, d := range e.inShape {
		e.inLen *= d
	}
	return e, nil
}

// ensureSlots builds the staging ring for the configured batch size on
// first use. Pre-sizing at build time means the stager never touches the
// arena again — the same trick training ingest uses — so steady-state
// staging is allocation-free.
func (e *Engine) ensureSlots() {
	if e.slots != nil {
		return
	}
	e.slots = make([]*slot, e.cfg.Lookahead+1)
	for i := range e.slots {
		st := tensor.NewStaging(e.arena, e.inShape...)
		st.Batch(e.cfg.Batch)
		e.slots[i] = &slot{stage: st}
	}
}

// Score runs every sample of ss through the model, filling p (grown to
// ss.Count) with per-sample argmax labels and confidences. Shard reads are
// prefetched on a background goroutine; inference consumes staged batches
// on the calling goroutine. The warm loop is allocation-free on both sides.
func (e *Engine) Score(ss *data.ShardSet, p *Predictions) (Result, error) {
	if ss.FeatLen != e.inLen {
		return Result{}, fmt.Errorf("bulk: shard features %d floats/sample, model wants %d", ss.FeatLen, e.inLen)
	}
	if ss.Count == 0 {
		return Result{}, fmt.Errorf("bulk: empty shard set")
	}
	p.grow(ss.Count)
	e.ensureSlots()

	// Sequential fixed-size ranges; one reusable index buffer — source and
	// stage both run on the pipeline's single prefetch goroutine, and idx
	// is dead once the stage copy completes.
	idxBuf := make([]int, e.cfg.Batch)
	next := 0
	source := func() []int {
		if next >= ss.Count {
			return nil
		}
		n := min(e.cfg.Batch, ss.Count-next)
		idx := idxBuf[:n]
		for i := range idx {
			idx[i] = next + i
		}
		next += n
		return idx
	}
	ingLane := e.cfg.Trace.Lane("bulk.ingest")
	staged := 0
	pipe := data.NewPipeline(e.slots, source, func(dst *slot, idx []int) error {
		ingLane.SetIter(staged)
		staged++
		ingLane.Begin(obs.PhaseIngest)
		dst.lo, dst.n = idx[0], len(idx)
		dst.x = dst.stage.Batch(dst.n)
		err := ss.ReadBatchInto(idx, dst.x.Data, nil, nil)
		ingLane.End(obs.PhaseIngest)
		return err
	})
	pipe.Start()
	defer pipe.Stop()

	var res Result
	t0 := time.Now()
	for batch := 0; ; batch++ {
		e.lane.Begin(obs.PhaseIngest)
		s, ok := pipe.Next()
		e.lane.End(obs.PhaseIngest)
		if !ok {
			if err := pipe.Err(); err != nil {
				return Result{}, err
			}
			break
		}
		e.lane.SetIter(batch)
		e.lane.Begin(obs.PhaseInfer)
		err := e.consume(s.x, p.Conf[s.lo:s.lo+s.n], p.Label[s.lo:s.lo+s.n])
		e.lane.End(obs.PhaseInfer)
		if err != nil {
			return Result{}, fmt.Errorf("bulk: samples [%d,%d): %w", s.lo, s.lo+s.n, err)
		}
		res.Samples += s.n
		res.Batches++
	}
	if res.Samples != ss.Count {
		return Result{}, fmt.Errorf("bulk: scored %d of %d samples", res.Samples, ss.Count)
	}
	res.Seconds = time.Since(t0).Seconds()
	if res.Seconds > 0 {
		res.SamplesPerSec = float64(res.Samples) / res.Seconds
	}
	if reg := e.cfg.Metrics; reg != nil {
		reg.Counter("bulk_samples").Add(int64(res.Samples))
		reg.Counter("bulk_batches").Add(int64(res.Batches))
		reg.Gauge("bulk_samples_per_sec").Set(res.SamplesPerSec)
	}
	return res, nil
}

// consume is the per-batch hot path: one forward pass plus in-place
// confidence extraction. Zero allocations once the plan bucket is warm
// (gated by TestEngineWarmPathZeroAlloc).
func (e *Engine) consume(x *tensor.Tensor, conf []float32, label []int32) error {
	var y *tensor.Tensor
	if e.shared != nil {
		y = e.shared.InferShared(x)
	} else {
		y = e.rep.Infer(x)
	}
	return nn.SoftmaxTop1(y, conf, label)
}

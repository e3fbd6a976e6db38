// Package bulk is the throughput half of the serving story: offline batch
// inference over unlabeled shard sets, feeding the pseudo-label flywheel.
//
// The online stack (internal/serve, internal/netserve) is tuned for tail
// latency — small dynamic batches, linger timers, per-request envelopes.
// Scoring millions of unlabeled samples is the opposite problem:
// nobody is waiting on any single answer, so every latency mechanism is
// pure overhead. The Engine here strips all of it out:
//
//   - shards stream through data.Pipeline prefetch (I/O hidden behind
//     compute, same machinery as training ingest);
//   - one lane per kernel thread lives for the whole run, each with its
//     own replica, and takes the staged 32-sample tiles (nn.InferTile) in
//     sample order, so there is no fork or join per batch and no lane
//     idles at a batch boundary; the tiles run straight into tile-sized
//     compiled plans via serve.SharedInferer — no queue, no linger, no
//     per-request envelope, and not even the online path's output copy;
//   - the tile is also the unit of staging: the prefetch ring is lanes + 2
//     slots of one tile each, allocated once, and the lane that scores a
//     tile releases its slot, so staging memory does not grow with
//     Config.Batch and the warm loop's allocations do not grow with the
//     set (gated by tests);
//   - confidence extraction (nn.SoftmaxTop1) runs in place on the
//     plan-owned logits, straight into the tile's prediction range.
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
	"sync"
	"time"

	"deep15pf/internal/data"
	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

// Config parameterises an Engine or a fleet run.
type Config struct {
	// Batch is the range tiles are cut within, and for ScoreFleet one wire
	// request. The Engine stages and scores tiles of 32 samples
	// (nn.InferTile) cut from the start of each Batch-sized range of the
	// set, so a batch of 80 is tiles of 32, 32 and 16; a ring slot holds
	// one tile whatever Batch is. Default 256.
	Batch int
	// Trace attaches phase spans (Ingest per tile on the stager lane; Infer
	// per tile and Ingest while taking the next tile on each scoring lane,
	// "bulk" and "bulk.1" up; per-shard iter tags on fleet worker lanes).
	// nil records nothing.
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

// Engine scores shard sets on lanes that live for a whole Score call: one
// per kernel thread in use, each with its own replica (lane 0 runs the
// engine's replica on the caller). Each lane takes the next staged tile
// in sample order, scores it and releases its slot, so no lane waits at a
// batch boundary for another to finish. One Score at a time; reuse across
// Score calls keeps the lanes' replicas, their compiled plans and the
// staging ring warm.
type Engine struct {
	cfg     Config
	model   *serve.LoadedModel // mints the replicas of lanes 1 and up
	inShape []int
	inLen   int

	slots  []*slot
	lanes  []*lane
	ingest *obs.Lane // the stager's trace lane
}

// slot is one staged tile in the prefetch ring.
type slot struct {
	x     []float32 // room for one tile; the staged samples are x[:n*inLen]
	lo, n int       // global sample range [lo, lo+n)
	batch int       // the index of the batch range the tile was cut from
}

// lane is one scoring thread's replica, its view of the tile it is
// running, and its trace lane.
type lane struct {
	rep   serve.SharedInferer
	x     tensor.Tensor
	trace *obs.Lane
}

// NewEngine mints one dedicated replica from m and wraps it for bulk
// scoring; Score mints one more per further lane it runs. The model must
// be a classifier — a rank-1 [classes] output — because the factory's
// product is an argmax label per sample.
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
		model:   m,
		inShape: rep.InShape(),
		ingest:  cfg.Trace.Lane("bulk.ingest"),
	}
	e.inLen = prod(e.inShape)
	if err := e.addLane(rep); err != nil {
		return nil, err
	}
	return e, nil
}

// addLane appends a lane running rep, with its trace lane: "bulk" for the
// caller's, "bulk.<i>" for the others.
func (e *Engine) addLane(rep serve.Model) error {
	shared, ok := rep.(serve.SharedInferer)
	if !ok {
		return fmt.Errorf("bulk: model %q has no copy-free datapath", rep.Arch())
	}
	name := "bulk"
	if i := len(e.lanes); i > 0 {
		name = fmt.Sprintf("bulk.%d", i)
	}
	e.lanes = append(e.lanes, &lane{
		rep:   shared,
		x:     tensor.Tensor{Shape: append([]int{0}, e.inShape...)},
		trace: e.cfg.Trace.Lane(name),
	})
	return nil
}

// ensureRing builds the staging ring on first use and grows it with the
// lane count. The lanes hold at most one slot each, so lanes + 2 slots
// keep two tiles staged ahead of them. Each slot is one tile, allocated
// once, so the stager never allocates in the steady state.
func (e *Engine) ensureRing(lanes int) {
	for len(e.slots) < lanes+2 {
		e.slots = append(e.slots, &slot{x: make([]float32, nn.InferTile*e.inLen)})
	}
}

// Score runs every sample of ss through the model, filling p (grown to
// ss.Count) with per-sample argmax labels and confidences. Shard reads are
// prefetched a tile at a time on a background goroutine;
// min(tensor.Workers(), tiles) lanes, the caller among them, score the
// staged tiles until the set is done. The warm loop is allocation-free on
// every side: what a call allocates does not grow with the set.
func (e *Engine) Score(ss *data.ShardSet, p *Predictions) (Result, error) {
	if ss.FeatLen != e.inLen {
		return Result{}, fmt.Errorf("bulk: shard features %d floats/sample, model wants %d", ss.FeatLen, e.inLen)
	}
	if ss.Count == 0 {
		return Result{}, fmt.Errorf("bulk: empty shard set")
	}
	p.grow(ss.Count)
	b := e.cfg.Batch
	tiles := ss.Count/b*tilesOf(b) + tilesOf(ss.Count%b)
	w := min(tensor.Workers(), tiles)
	for len(e.lanes) < w {
		rep, err := e.model.NewReplica()
		if err != nil {
			return Result{}, err
		}
		if err := e.addLane(rep); err != nil {
			return Result{}, err
		}
	}
	e.ensureRing(w)

	// Sequential tiles, cut from the start of each batch range; one
	// reusable index buffer — source and stage both run on the pipeline's
	// single prefetch goroutine, and idx is dead once the stage copy
	// completes.
	idxBuf := make([]int, nn.InferTile)
	next := 0
	source := func() []int {
		if next >= ss.Count {
			return nil
		}
		end := min(next-next%b+b, ss.Count) // the end of next's batch range
		idx := idxBuf[:min(nn.InferTile, end-next)]
		for i := range idx {
			idx[i] = next + i
		}
		next += len(idx)
		return idx
	}
	pipe := data.NewPipeline(e.slots, source, func(dst *slot, idx []int) error {
		dst.lo, dst.n, dst.batch = idx[0], len(idx), idx[0]/b
		e.ingest.SetIter(dst.batch)
		e.ingest.Begin(obs.PhaseIngest)
		err := ss.ReadBatchInto(idx, dst.x[:dst.n*e.inLen], nil, nil)
		e.ingest.End(obs.PhaseIngest)
		return err
	})
	st := &stream{pipe: pipe, inLen: e.inLen, p: p}
	t0 := time.Now()
	pipe.Start()
	var wg sync.WaitGroup
	for _, l := range e.lanes[1:w] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.run(l)
		}()
	}
	st.run(e.lanes[0])
	wg.Wait()
	pipe.Stop()
	if st.err != nil {
		return Result{}, st.err
	}
	res := Result{Samples: st.samples, Batches: (ss.Count + b - 1) / b}
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

// tilesOf is how many tiles a batch of n samples is cut into.
func tilesOf(n int) int { return (n + nn.InferTile - 1) / nn.InferTile }

// stream hands the staged tiles to the lanes in sample order; each lane
// releases the tile it took once it has scored it.
type stream struct {
	pipe  *data.Pipeline[*slot]
	inLen int
	p     *Predictions

	mu      sync.Mutex
	samples int
	err     error // the failure with the lowest sample range
	errLo   int   // its first sample
}

// take returns lane l's next tile, or ok == false once the set is done or
// a lane has failed.
func (st *stream) take(l *lane) (s *slot, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err != nil {
		return nil, false
	}
	// mu stays held across Next on purpose: it keeps Next calls from
	// overlapping, and a lane blocked on mu needs the next tile anyway.
	// The wait always ends: a lane releases its tile without taking mu,
	// and the stager never takes mu either.
	l.trace.Begin(obs.PhaseIngest)
	s, ok = st.pipe.Next()
	l.trace.End(obs.PhaseIngest)
	if !ok { // and again for every lane that asks after the end
		st.err = st.pipe.Err()
		return nil, false
	}
	st.samples += s.n
	return s, true
}

// fail records err for the tile starting at global sample lo, keeping the
// lowest-ranged failure so the report does not depend on lane timing.
func (st *stream) fail(lo int, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.err == nil || lo < st.errLo {
		st.err, st.errLo = err, lo
	}
}

// run scores tiles on lane l until none are left, each straight into its
// prediction range.
func (st *stream) run(l *lane) {
	for {
		s, ok := st.take(l)
		if !ok {
			return
		}
		lo, hi := s.lo, s.lo+s.n // s may be restaged once released
		l.trace.SetIter(s.batch)
		l.trace.Begin(obs.PhaseInfer)
		err := l.score(s.x[:s.n*st.inLen], st.p.Conf[lo:hi], st.p.Label[lo:hi])
		l.trace.End(obs.PhaseInfer)
		st.pipe.Release(s)
		if err != nil {
			st.fail(lo, fmt.Errorf("bulk: samples [%d,%d): %w", lo, hi, err))
			return
		}
	}
}

// score runs one tile on lane l, x its len(conf) packed samples: one
// forward pass on the lane's replica, then confidence extraction in place
// on the plan-owned logits, straight into conf and label.
func (l *lane) score(x []float32, conf []float32, label []int32) error {
	l.x.Shape[0], l.x.Data = len(conf), x
	return nn.SoftmaxTop1(l.rep.InferShared(&l.x), conf, label)
}

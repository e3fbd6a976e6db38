package bulk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"deep15pf/internal/data"
	"deep15pf/internal/netserve"
	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/tensor"
)

// FleetResult summarises a fleet scoring run.
type FleetResult struct {
	Samples       int
	Seconds       float64
	SamplesPerSec float64
	// Requeues counts shard re-dispatches after a backend failure; zero on
	// a clean run.
	Requeues int
	// BackendsLost counts workers that died mid-run (their shards were
	// requeued and finished elsewhere).
	BackendsLost int
}

// ScoreFleet fans ss's shards out across the netserve backends at addrs:
// one worker goroutine per backend, all stealing whole shards from a
// shared queue, each shard scored as pre-assembled [N, InShape...] batches
// over the wire (the server's InferBatch fast path — no dynamic batcher in
// the loop). Work stealing makes the fleet self-balancing: a slow backend
// simply takes fewer shards.
//
// Fault model: a shard is the unit of loss recovery. A worker whose
// transport dies (or whose backend starts draining) requeues its shard —
// the queue has capacity for every shard, and a requeued shard was
// necessarily dequeued first, so the send never blocks — and exits;
// surviving workers pick it up. Re-scoring a shard overwrites the same
// disjoint prediction range, so partial first attempts are harmless. Typed
// model/shape refusals are configuration errors and abort the whole run
// instead of bouncing forever. If every backend dies with shards
// outstanding, ScoreFleet returns an error rather than silent undercount.
func ScoreFleet(addrs []string, model string, ss *data.ShardSet, cfg Config, p *Predictions) (FleetResult, error) {
	cfg = cfg.withDefaults()
	if len(addrs) == 0 {
		return FleetResult{}, fmt.Errorf("bulk: fleet needs at least one backend")
	}
	if ss.Count == 0 {
		return FleetResult{}, fmt.Errorf("bulk: empty shard set")
	}
	inShape := cfg.InShape
	if inShape == nil {
		inShape = []int{ss.FeatLen}
	}
	if n := prod(inShape); n != ss.FeatLen {
		return FleetResult{}, fmt.Errorf("bulk: InShape %v holds %d elements, shards carry %d floats/sample", inShape, n, ss.FeatLen)
	}
	p.grow(ss.Count)

	numShards := ss.Shards()
	queue := make(chan int, numShards)
	for k := 0; k < numShards; k++ {
		queue <- k
	}
	var (
		remaining atomic.Int64 // shards not yet fully scored
		requeues  atomic.Int64
		lost      atomic.Int64
		wg        sync.WaitGroup
		quitOnce  sync.Once
		quit      = make(chan struct{})
		fatalMu   sync.Mutex
		fatalErr  error
	)
	remaining.Store(int64(numShards))
	abort := func(err error) {
		fatalMu.Lock()
		if fatalErr == nil {
			fatalErr = err
		}
		fatalMu.Unlock()
		quitOnce.Do(func() { close(quit) })
	}

	t0 := time.Now()
	for wi, addr := range addrs {
		wg.Add(1)
		go func(wi int, addr string) {
			defer wg.Done()
			w, err := newFleetWorker(addr, model, ss, cfg, inShape, p, cfg.Trace.Lane(fmt.Sprintf("bulk.f%d", wi)))
			if err != nil {
				lost.Add(1) // never joined; its share stays queued for others
				return
			}
			defer w.close()
			for {
				var k int
				var ok bool
				select {
				case k, ok = <-queue:
					if !ok {
						return
					}
				case <-quit:
					return
				}
				if err := w.scoreShard(k); err != nil {
					var re *netserve.RemoteError
					if errors.As(err, &re) && (re.Code == netserve.CodeUnknownModel || re.Code == netserve.CodeBadShape) {
						abort(fmt.Errorf("bulk: backend %s refused shard %d: %w", addr, k, err))
						return
					}
					// Transport failure or draining backend: put the shard
					// back for a surviving worker and retire this one.
					queue <- k
					requeues.Add(1)
					lost.Add(1)
					return
				}
				if remaining.Add(-1) == 0 {
					close(queue)
				}
			}
		}(wi, addr)
	}
	wg.Wait()

	res := FleetResult{
		Samples:      ss.Count,
		Seconds:      time.Since(t0).Seconds(),
		Requeues:     int(requeues.Load()),
		BackendsLost: int(lost.Load()),
	}
	fatalMu.Lock()
	err := fatalErr
	fatalMu.Unlock()
	if err != nil {
		return res, err
	}
	if left := remaining.Load(); left > 0 {
		return res, fmt.Errorf("bulk: all %d backends lost with %d shards unscored", len(addrs), left)
	}
	if res.Seconds > 0 {
		res.SamplesPerSec = float64(res.Samples) / res.Seconds
	}
	if reg := cfg.Metrics; reg != nil {
		reg.Counter("bulk_samples").Add(int64(res.Samples))
		reg.Gauge("bulk_samples_per_sec").Set(res.SamplesPerSec)
	}
	return res, nil
}

// fleetWorker is one backend's scoring loop: its own connection, staging
// buffer and index buffer, so workers share nothing but the shard queue and
// disjoint prediction ranges.
type fleetWorker struct {
	c     *netserve.Client
	model string
	ss    *data.ShardSet
	batch int
	p     *Predictions
	buf   []float32     // staging for a whole batch, allocated once
	x     tensor.Tensor // [n, InShape...] view of buf for the batch in hand
	idx   []int
	lane  *obs.Lane
}

func newFleetWorker(addr, model string, ss *data.ShardSet, cfg Config, inShape []int, p *Predictions, lane *obs.Lane) (*fleetWorker, error) {
	c, err := netserve.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &fleetWorker{
		c: c, model: model, ss: ss, batch: cfg.Batch, p: p,
		buf:  make([]float32, cfg.Batch*ss.FeatLen),
		x:    tensor.Tensor{Shape: append([]int{0}, inShape...)},
		idx:  make([]int, cfg.Batch),
		lane: lane,
	}, nil
}

func (w *fleetWorker) close() { w.c.Close() }

// scoreShard stages shard k batch by batch, ships each batch as one wire
// request, and writes confidences/labels into the shard's global range.
func (w *fleetWorker) scoreShard(k int) error {
	lo, hi := w.ss.ShardRange(k)
	w.lane.SetIter(k)
	for at := lo; at < hi; at += w.batch {
		n := min(w.batch, hi-at)
		idx := w.idx[:n]
		for i := range idx {
			idx[i] = at + i
		}
		w.x.Shape[0], w.x.Data = n, w.buf[:n*w.ss.FeatLen]
		w.lane.Begin(obs.PhaseIngest)
		err := w.ss.ReadBatchInto(idx, w.x.Data, nil, nil)
		w.lane.End(obs.PhaseIngest)
		if err != nil {
			return err
		}
		w.lane.Begin(obs.PhaseNetWait)
		y, err := w.c.Infer(w.model, &w.x)
		w.lane.End(obs.PhaseNetWait)
		if err != nil {
			return err
		}
		w.lane.Begin(obs.PhaseInfer)
		err = nn.SoftmaxTop1(y, w.p.Conf[at:at+n], w.p.Label[at:at+n])
		w.lane.End(obs.PhaseInfer)
		if err != nil {
			return err
		}
	}
	return nil
}

func prod(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

package data

import (
	"sync"
	"sync/atomic"
	"time"
)

// IngestStats accounts a training run's input staging the way ps.WireStats
// accounts its parameter traffic: StageSeconds is the total time spent
// reading and copying batches (the I/O work performed), WaitSeconds is the
// part the consumer actually sat blocked on — the *exposed* ingest time that
// extended iterations. The paper's Fig 5 breaks input I/O out as 13% of the
// climate iteration (~2% for HEP); a prefetching pipeline's target is
// driving WaitSeconds to zero while StageSeconds stays put, exactly like
// the PR 3 overlap drove ExposedCommSeconds down.
type IngestStats struct {
	Batches      int64   // staged batches
	Samples      int64   // staged samples
	StageSeconds float64 // total staging time (shard reads + copies)
	WaitSeconds  float64 // consumer-blocked time (exposed ingest)
}

// Add merges two accounts (e.g. across a group's worker replicas).
func (s IngestStats) Add(o IngestStats) IngestStats {
	return IngestStats{
		Batches:      s.Batches + o.Batches,
		Samples:      s.Samples + o.Samples,
		StageSeconds: s.StageSeconds + o.StageSeconds,
		WaitSeconds:  s.WaitSeconds + o.WaitSeconds,
	}
}

// Overlap returns the fraction of staging time hidden behind compute,
// in [0,1]. A blocking reader scores 0 (every staging second is exposed);
// a perfectly hidden pipeline scores 1.
func (s IngestStats) Overlap() float64 {
	if s.StageSeconds <= 0 {
		return 0
	}
	f := 1 - s.WaitSeconds/s.StageSeconds
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// Pipeline is a double-buffered background prefetcher: one goroutine stages
// upcoming batches into a bounded ring of pre-sized slots while the consumer
// trains on the current one. B is the slot type (a staged batch: tensors,
// labels, boxes — whatever the problem needs); slots are allocated once by
// the caller, so the steady state touches no allocator on either side.
//
// Determinism contract: there is exactly ONE prefetch goroutine, and it
// draws index sets from source strictly in order — the same order (and
// therefore the same RNG consumption) as the blocking pull-at-iteration-
// start path it replaces. Staging is a pure copy of dataset/shard contents,
// so with prefetch on, a training trajectory is bitwise identical to the
// staged path; only the timing changes.
//
// Release contract: a consumer returns every slot it took with Next through
// Release, in any order and from any goroutine, once it is done reading
// it; Next never recycles a slot on its own. A slot is restaged only after
// its release, so a held batch stays intact however many Next calls
// follow. Backpressure is the free ring: once every slot is staged or held,
// the prefetcher blocks until one is released. A consumer that holds h
// slots at once therefore needs a ring of at least h+1 to keep one batch
// staged ahead.
type Pipeline[B comparable] struct {
	slots  []B
	source func() []int         // next batch's sample indices; nil = end of stream
	stage  func(B, []int) error // fill a slot from indices (prefetch goroutine only)

	free  chan int // slot indices available for staging
	ready chan int // slot indices staged, in order
	quit  chan struct{}
	done  chan struct{} // closed when the prefetch goroutine exits
	stop  sync.Once
	held  []atomic.Bool // slot taken by Next and not yet released
	err   error

	batches atomic.Int64
	samples atomic.Int64
	stageNs atomic.Int64
	waitNs  atomic.Int64
}

// NewPipeline builds a pipeline over the given pre-allocated slots. source
// yields successive batch index sets (nil ends the stream) and stage fills a
// slot from one index set; both run only on the pipeline's single prefetch
// goroutine. At least two slots are required — one staging while one trains
// is the double buffer; more slots deepen the ring so jittery reads smooth
// out. Call Start to launch the prefetcher.
func NewPipeline[B comparable](slots []B, source func() []int, stage func(dst B, idx []int) error) *Pipeline[B] {
	if len(slots) < 2 {
		panic("data: Pipeline needs at least 2 slots (one staging, one training)")
	}
	if source == nil || stage == nil {
		panic("data: Pipeline needs a source and a stage function")
	}
	p := &Pipeline[B]{
		slots:  slots,
		source: source,
		stage:  stage,
		free:   make(chan int, len(slots)),
		ready:  make(chan int, len(slots)),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		held:   make([]atomic.Bool, len(slots)),
	}
	for i := range slots {
		p.free <- i
	}
	return p
}

// Start launches the prefetch goroutine.
func (p *Pipeline[B]) Start() { go p.run() }

func (p *Pipeline[B]) run() {
	// LIFO: done must close BEFORE ready, so a consumer that observes the
	// ready channel closed is guaranteed to see p.err through Err().
	defer close(p.ready)
	defer close(p.done)
	for {
		idx := p.source()
		if idx == nil {
			return
		}
		var s int
		select {
		case s = <-p.free:
		case <-p.quit:
			return
		}
		t0 := time.Now()
		if err := p.stage(p.slots[s], idx); err != nil {
			p.err = err // published by the deferred close(ready)
			return
		}
		p.stageNs.Add(time.Since(t0).Nanoseconds())
		p.batches.Add(1)
		p.samples.Add(int64(len(idx)))
		// Token conservation (len(free)+len(ready)+consumer-held == len(slots))
		// guarantees this send never blocks.
		p.ready <- s
	}
}

// Next returns the next staged batch, blocking until the prefetcher has one
// (that blocked time is the exposed ingest WaitSeconds). The batch is the
// caller's until it passes it to Release. ok == false means the source is
// exhausted or staging failed — check Err. Calls to Next must not overlap.
func (p *Pipeline[B]) Next() (batch B, ok bool) {
	t0 := time.Now()
	s, open := <-p.ready
	p.waitNs.Add(time.Since(t0).Nanoseconds())
	if !open {
		var zero B
		return zero, false
	}
	p.held[s].Store(true)
	return p.slots[s], true
}

// Release hands a batch returned by Next back to the prefetcher for
// restaging. It may be called from any goroutine, and batches may be
// released in any order. Releasing a batch that is not held panics.
func (p *Pipeline[B]) Release(batch B) {
	for s, b := range p.slots {
		if b == batch {
			if !p.held[s].CompareAndSwap(true, false) {
				panic("data: Pipeline.Release of a batch not held")
			}
			// Token conservation: free has room for every slot.
			p.free <- s
			return
		}
	}
	panic("data: Pipeline.Release of a batch from another pipeline")
}

// Err reports a staging failure. Valid once Next has returned ok == false
// (or after Stop).
func (p *Pipeline[B]) Err() error {
	select {
	case <-p.done:
		return p.err
	default:
		return nil
	}
}

// Stop terminates the prefetch goroutine and waits for it to exit. Stats
// stay readable; Next must not be called afterwards. Safe to call more than
// once, and after the source is already exhausted.
func (p *Pipeline[B]) Stop() {
	p.stop.Do(func() { close(p.quit) })
	<-p.done
}

// Stats snapshots the pipeline's ingest accounting. Safe to call from the
// consumer at any time.
func (p *Pipeline[B]) Stats() IngestStats {
	return IngestStats{
		Batches:      p.batches.Load(),
		Samples:      p.samples.Load(),
		StageSeconds: float64(p.stageNs.Load()) / 1e9,
		WaitSeconds:  float64(p.waitNs.Load()) / 1e9,
	}
}

// SliceSource adapts a pre-drawn batch sequence (e.g. a trainer's per-rank
// shard sequence) into a Pipeline source, skipping empty index sets — a
// shard with zero samples (data.Split with more parts than samples) is
// skipped, never staged as a zero batch.
func SliceSource(batches [][]int) func() []int {
	i := 0
	return func() []int {
		for i < len(batches) {
			b := batches[i]
			i++
			if len(b) > 0 {
				return b
			}
		}
		return nil
	}
}

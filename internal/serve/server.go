package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"deep15pf/internal/obs"
	"deep15pf/internal/tensor"
)

// ErrClosed is returned by Submit after Close has begun.
var ErrClosed = errors.New("serve: server closed")

// Config parameterises a Server.
type Config struct {
	// MaxBatch caps how many requests one forward pass coalesces.
	// 1 disables batching (every request runs alone — the baseline the
	// batching study compares against). Default 32.
	MaxBatch int
	// MaxLinger bounds how long a partially filled batch waits for
	// company after its first request arrives. 0 takes the default
	// (500µs); a negative value disables lingering entirely — dispatch
	// whatever is queued.
	MaxLinger time.Duration
	// Workers is the replica pool size. Each worker owns one model
	// replica, so memory scales linearly. Default GOMAXPROCS.
	Workers int
	// QueueDepth is the request queue capacity; Submit blocks once it
	// fills (closed-loop backpressure rather than load shedding).
	// Default 4×MaxBatch×Workers.
	QueueDepth int
	// Trace attaches the server to a phase tracer: each worker records
	// Queue (earliest enqueue → dispatch), Batch (assembly) and Infer
	// spans on its own "serve.w<i>" lane. nil records nothing.
	Trace *obs.Tracer
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxLinger < 0 {
		c.MaxLinger = 0
	} else if c.MaxLinger == 0 {
		c.MaxLinger = 500 * time.Microsecond
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch * c.Workers
	}
	return c
}

// Server is a running inference service over one loaded model: a request
// queue, a dynamic batcher, and a pool of replica-owning workers.
type Server struct {
	cfg     Config
	model   *LoadedModel
	inShape []int
	inLen   int

	queue    chan *pending
	dispatch chan []*pending
	metrics  *metrics
	// idleWorkers counts replicas waiting for work; the batcher stops
	// lingering the moment capacity would otherwise sit idle.
	idleWorkers atomic.Int32

	mu       sync.Mutex
	closed   bool
	inflight sync.WaitGroup

	// Bulk-path replica pool (bulk.go): minted lazily on the first
	// InferBatch, capped at cfg.Workers, disjoint from the online workers'
	// replicas so offline scoring never contends for a latency-serving
	// model instance.
	bulkPool   chan Model
	bulkMu     sync.Mutex
	bulkMinted int

	batcherWG sync.WaitGroup
	workerWG  sync.WaitGroup
}

// NewServer mints cfg.Workers replicas from m and starts the batcher and
// worker pool. The server is immediately ready for Submit.
func NewServer(m *LoadedModel, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		model:    m,
		inShape:  m.InShape(),
		queue:    make(chan *pending, cfg.QueueDepth),
		dispatch: make(chan []*pending, cfg.Workers),
		metrics:  newMetrics(m.ModelArch),
		bulkPool: make(chan Model, cfg.Workers),
	}
	s.inLen = 1
	for _, d := range s.inShape {
		s.inLen *= d
	}
	for i := 0; i < cfg.Workers; i++ {
		rep, err := m.NewReplica()
		if err != nil {
			return nil, err
		}
		s.workerWG.Add(1)
		go s.worker(rep, cfg.Trace.Lane(fmt.Sprintf("serve.w%d", i)))
	}
	s.batcherWG.Add(1)
	go s.batcher()
	return s, nil
}

// Submit runs one sample through the service and blocks until its result is
// ready (or the queue has room, whichever gates first — a full queue is
// backpressure, not an error). x must have the model's per-sample input
// shape and must not be mutated until Submit returns. The returned tensor
// is owned by the caller and valid indefinitely; it is a capacity-capped
// view into a per-batch output buffer, so holding it pins that batch's
// output allocation (MaxBatch·outLen floats at most).
func (s *Server) Submit(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Len() != s.inLen || !sameShape(x.Shape, s.inShape) {
		return nil, fmt.Errorf("serve: request shape %v, model wants %v", x.Shape, s.inShape)
	}
	p := pendingPool.Get().(*pending)
	p.x, p.enq = x, time.Now()
	if err := s.enqueue(p); err != nil {
		return nil, err
	}
	r := <-p.done
	s.inflight.Done()
	p.x = nil
	pendingPool.Put(p)
	return r.y, r.err
}

// SubmitAsync is the submit-by-request-id entry point the network tier
// (internal/netserve) rides: it enqueues x and returns as soon as the
// request is accepted; the worker that serves the batch invokes
// cb(y, ctx) with the response. Unlike Submit, no goroutine is parked per
// request — a connection reader can pipeline thousands of in-flight
// requests, keyed by whatever id it stashed in ctx.
//
// Contract: cb runs on a worker goroutine, so it must be fast and must
// not Submit back into the same server (it would deadlock a full queue).
// x must keep the model's input shape and stays owned by the server until
// cb fires — the batch assembly copy has happened by then, so cb is the
// earliest point x may be recycled. A full queue blocks SubmitAsync
// (backpressure, exactly like Submit); after Close has begun it returns
// ErrClosed and cb is never invoked.
func (s *Server) SubmitAsync(x *tensor.Tensor, cb func(y *tensor.Tensor, ctx any), ctx any) error {
	if x.Len() != s.inLen || !sameShape(x.Shape, s.inShape) {
		return fmt.Errorf("serve: request shape %v, model wants %v", x.Shape, s.inShape)
	}
	if cb == nil {
		return fmt.Errorf("serve: SubmitAsync needs a completion callback")
	}
	p := pendingPool.Get().(*pending)
	p.x, p.enq, p.cb, p.ctx = x, time.Now(), cb, ctx
	return s.enqueue(p)
}

// enqueue admits p to the request queue under the closed check, recycling
// the envelope on refusal.
func (s *Server) enqueue(p *pending) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		p.x, p.cb, p.ctx = nil, nil, nil
		pendingPool.Put(p)
		return ErrClosed
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	s.queue <- p
	return nil
}

// Stats snapshots the serving record so far.
func (s *Server) Stats() Stats { return s.metrics.snapshot() }

// Metrics exposes the server's live instrument registry (counters,
// gauges, the latency histogram) — what -debug-addr's /metrics endpoint
// and the periodic dump read.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// ResetStats clears the serving record — counters, latency histograms
// and the latency reservoir, so Metrics agrees with Stats — and restarts
// the stats wall clock. Benchmarks call it
// between warmup and measurement so quantiles cover only steady state
// (warmup holds the first-request plan compiles, which would otherwise
// pollute the tail).
func (s *Server) ResetStats() { s.metrics.reset() }

// Model returns the loaded model this server serves.
func (s *Server) Model() *LoadedModel { return s.model }

// Close stops accepting requests, waits for every in-flight request to
// complete, and shuts the batcher and workers down. Safe to call twice.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.inflight.Wait() // no submitter is between queue send and done receive
	close(s.queue)
	s.batcherWG.Wait()
	close(s.dispatch)
	s.workerWG.Wait()
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

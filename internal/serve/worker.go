package serve

import (
	"time"

	"deep15pf/internal/obs"
	"deep15pf/internal/tensor"
)

// worker owns one model replica for its lifetime (replicas cache forward
// state, so they are strictly single-goroutine). It assembles each
// dispatched batch into one tensor, runs a single forward pass, scatters
// the outputs to the per-request futures, and records metrics once per
// batch — the amortisation that makes batching pay even before the model
// sees it.
//
// With tracing on, each batch leaves three spans on the worker's lane:
// Queue (the oldest member's enqueue → dispatch receipt — how long the
// batcher let demand sit), Batch (assembly copy) and Infer (the forward
// pass). lane is nil when untraced; every span site is one branch.
func (s *Server) worker(rep Model, lane *obs.Lane) {
	defer s.workerWG.Done()
	s.idleWorkers.Add(1)
	tracer := lane.Tracer()
	outShape := rep.OutShape()
	outLen := 1
	for _, d := range outShape {
		outLen *= d
	}
	flopsPerSample := float64(rep.FwdFLOPsPerSample())
	lats := make([]float64, 0, s.cfg.MaxBatch)
	batchNo := 0

	for batch := range s.dispatch {
		s.idleWorkers.Add(-1)
		lane.SetIter(batchNo)
		batchNo++
		n := len(batch)
		// Queue span: from the earliest enqueue in the batch to now. The
		// enqueue stamps were taken by Submit, so the span is recorded
		// with explicit endpoints rather than Begin/End.
		if tracer != nil {
			earliest := batch[0].enq
			for _, p := range batch[1:] {
				if p.enq.Before(earliest) {
					earliest = p.enq
				}
			}
			lane.Record(obs.PhaseQueue, tracer.At(earliest), tracer.Now())
		}
		lane.Begin(obs.PhaseBatch)
		x := tensor.New(append([]int{n}, s.inShape...)...)
		for i, p := range batch {
			copy(x.Data[i*s.inLen:(i+1)*s.inLen], p.x.Data)
		}
		lane.End(obs.PhaseBatch)
		lane.Begin(obs.PhaseInfer)
		t0 := time.Now()
		y := rep.Infer(x)
		infer := time.Since(t0)
		lane.End(obs.PhaseInfer)

		// The batch is recorded before any member is answered, so a caller
		// holding its response finds it counted in Stats.
		done := time.Now()
		lats = lats[:0]
		for _, p := range batch {
			lats = append(lats, done.Sub(p.enq).Seconds())
		}
		s.metrics.recordBatch(n, infer, flopsPerSample*float64(n), lats)

		// Responses are views into the batch output (one allocation per
		// batch, not per request); the worker never touches y again. The
		// three-index slice caps capacity at the request's own segment so
		// no caller can reslice into a neighbour's result.
		for i, p := range batch {
			out := tensor.FromSlice(y.Data[i*outLen:(i+1)*outLen:(i+1)*outLen], outShape...)
			if p.cb != nil {
				// Async request: complete via callback and recycle the
				// envelope here — there is no submitter goroutine to do it.
				cb, ctx := p.cb, p.ctx
				p.x, p.cb, p.ctx = nil, nil, nil
				pendingPool.Put(p)
				cb(out, ctx)
				s.inflight.Done()
				continue
			}
			p.done <- result{y: out}
		}
		s.idleWorkers.Add(1)
	}
}

package serve

import (
	"fmt"

	"deep15pf/internal/tensor"
)

// MaxBulkBatch caps the leading dimension InferBatch accepts. A plan above
// nn's inference tile (32 samples) no longer sizes its activations to its
// batch bucket — it holds one tile's worth per kernel thread — so what an
// oversized request would still pin for the server's lifetime is the
// bucket's [N, out] output slab, and what it costs while it runs is its
// own input and the response copy (48 MB of input for 4096 hep-small
// events). 4096 comfortably covers a shard's worth of samples per call
// while keeping those bounded. bulk.Config.Batch is clamped to it because
// bulk.ScoreFleet sends each batch as one InferBatch; bulk.Engine
// runs tile-sized plans on its own lanes and compiles nothing this large.
const MaxBulkBatch = 4096

// InferBatch is the offline fast path: it runs a whole [N, InShape...]
// batch through a dedicated bulk replica, bypassing the dynamic batcher
// entirely — no queue, no linger timer, no per-request envelopes. Above 32
// samples the replica's plan runs the batch as tiles on every kernel
// thread (nn/tile.go), so one call uses the host, and concurrent calls
// share it. The returned [N, OutShape...] tensor is owned by the caller.
//
// Bulk replicas live in their own lazily-minted pool (capped at
// cfg.Workers), so concurrent InferBatch callers — the netserve backend
// runs one goroutine per in-flight bulk request — scale across replicas
// without ever touching the latency-serving workers' instances. The call
// participates in the server's in-flight accounting: Close waits for
// running InferBatch calls, and calls after Close has begun return
// ErrClosed.
func (s *Server) InferBatch(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != len(s.inShape)+1 || x.Shape[0] < 1 {
		return nil, fmt.Errorf("serve: bulk batch shape %v, model wants [N,%v]", x.Shape, s.inShape)
	}
	for i, d := range s.inShape {
		if x.Shape[i+1] != d {
			return nil, fmt.Errorf("serve: bulk batch shape %v, model wants [N,%v]", x.Shape, s.inShape)
		}
	}
	if x.Shape[0] > MaxBulkBatch {
		return nil, fmt.Errorf("serve: bulk batch %d exceeds cap %d", x.Shape[0], MaxBulkBatch)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()

	rep, err := s.bulkReplica()
	if err != nil {
		return nil, err
	}
	y := rep.Infer(x)
	s.bulkPool <- rep
	return y, nil
}

// bulkReplica hands out a pooled bulk replica, minting a new one while the
// pool is below its cap. Past the cap it blocks until a running InferBatch
// returns one — natural backpressure at cfg.Workers concurrent batches.
func (s *Server) bulkReplica() (Model, error) {
	select {
	case rep := <-s.bulkPool:
		return rep, nil
	default:
	}
	s.bulkMu.Lock()
	if s.bulkMinted < cap(s.bulkPool) {
		s.bulkMinted++
		s.bulkMu.Unlock()
		rep, err := s.model.NewReplica()
		if err != nil {
			s.bulkMu.Lock()
			s.bulkMinted--
			s.bulkMu.Unlock()
			return nil, err
		}
		return rep, nil
	}
	s.bulkMu.Unlock()
	return <-s.bulkPool, nil
}

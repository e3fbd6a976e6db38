// Package comm is the in-process counterpart of the paper's MLSL layer
// (§III-D): collective operations — all-reduce, broadcast, gather — over a
// fixed group of workers, implemented with channels so real multi-worker
// training runs inside one process. Reductions use a deterministic binary
// tree, so results are bit-identical across runs regardless of goroutine
// scheduling (floating-point addition is not associative; a fixed tree
// makes the reduction order part of the contract).
//
// The paper extended MLSL with disjoint communication groups and dedicated
// parameter-server endpoints; here each disjoint group is its own Group,
// and internal/ps provides the PS endpoints.
package comm

import (
	"fmt"
	"sync"

	"deep15pf/internal/tensor"
)

// Group is a communicator over Size ranks. All ranks must call each
// collective the same number of times in the same order (standard MPI
// semantics); collectives match by call sequence.
type Group struct {
	size    int
	barrier *barrier
	// slots[i] carries rank i's contribution for the current collective.
	slots [][]float32
	// gatherVals is the dedicated GatherInto staging area (slots holds whatever
	// buffer the last all-reduce pinned, so reusing it would realloc).
	gatherVals []float32
	mu         sync.Mutex
	// async holds the nonblocking-collective match state (see async.go).
	async asyncState
}

// NewGroup creates a communicator for size ranks.
func NewGroup(size int) *Group {
	if size < 1 {
		panic("comm: group size must be positive")
	}
	g := &Group{
		size:       size,
		barrier:    newBarrier(size),
		slots:      make([][]float32, size),
		gatherVals: make([]float32, size),
	}
	g.async.seq = make([]uint64, size)
	g.async.inflight = make(map[uint64]*collective)
	return g
}

// Size returns the number of ranks.
func (g *Group) Size() int { return g.size }

// AllReduceSum sums data across ranks in place: after the call every
// rank's slice holds the elementwise sum. The reduction is a fixed
// sequential-order tree executed by rank 0 (deterministic), then broadcast.
func (g *Group) AllReduceSum(rank int, data []float32) {
	g.checkRank(rank)
	if g.size == 1 {
		return
	}
	g.mu.Lock()
	g.slots[rank] = data
	g.mu.Unlock()
	g.barrier.wait() // all contributions visible
	if rank == 0 {
		// Deterministic reduction: accumulate ranks in index order into
		// rank 0's buffer.
		acc := g.slots[0]
		for r := 1; r < g.size; r++ {
			tensor.Axpy(1, g.slots[r], acc)
		}
	}
	g.barrier.wait() // reduction complete
	if rank != 0 {
		copy(data, g.slots[0])
	}
	g.barrier.wait() // copies complete before anyone reuses buffers
}

// AllReduceMean averages data across ranks in place.
func (g *Group) AllReduceMean(rank int, data []float32) {
	g.AllReduceSum(rank, data)
	if g.size > 1 {
		tensor.Scale(1/float32(g.size), data)
	}
}

// Broadcast copies root's buffer into every other rank's buffer.
func (g *Group) Broadcast(rank, root int, data []float32) {
	g.checkRank(rank)
	g.checkRank(root)
	if g.size == 1 {
		return
	}
	g.mu.Lock()
	g.slots[rank] = data
	g.mu.Unlock()
	g.barrier.wait()
	if rank != root {
		copy(data, g.slots[root])
	}
	g.barrier.wait()
}

// GatherInto collects every rank's value at the root, positioned by rank:
// the root passes a slice of group-size length and gets it back filled;
// other ranks pass nil and receive nil.
func (g *Group) GatherInto(rank, root int, value float64, out []float64) []float64 {
	g.checkRank(rank)
	g.checkRank(root)
	g.mu.Lock()
	g.gatherVals[rank] = float32(value)
	g.mu.Unlock()
	g.barrier.wait()
	if rank == root {
		if len(out) != g.size {
			panic("comm: GatherInto root buffer must have group-size length")
		}
		for r := 0; r < g.size; r++ {
			out[r] = float64(g.gatherVals[r])
		}
	} else {
		out = nil
	}
	g.barrier.wait()
	return out
}

func (g *Group) checkRank(rank int) {
	if rank < 0 || rank >= g.size {
		panic(fmt.Sprintf("comm: rank %d out of group of %d", rank, g.size))
	}
}

// barrier is a reusable n-party barrier.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	arrived int
	phase   int
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	phase := b.phase
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.phase++
		b.cond.Broadcast()
	} else {
		for b.phase == phase {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

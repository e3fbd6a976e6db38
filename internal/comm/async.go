package comm

import (
	"sync"

	"deep15pf/internal/tensor"
)

// ChunkElems is the chunk granularity of the gradient wire: asynchronous
// reductions walk their buffers chunk by chunk and the int8 codec carries
// one dequantisation scale per chunk. Shard boundaries in the parameter
// servers align to it so a shard can decode its range without its
// neighbours' scales.
const ChunkElems = 4096

// Handle tracks one rank's view of an in-flight asynchronous collective.
// It is a small value (store it in a preallocated slice; no heap traffic).
// Wait blocks until the collective completes; it must be called exactly once
// per handle, and the rank's buffer must not be read, written or reused
// until Wait returns. The division by the group size happens inside Wait,
// on the waiting rank's own buffer — bitwise identical to the blocking
// AllReduceMean.
type Handle struct {
	c    *collective
	g    *Group
	rank int
}

// collective is one in-flight async all-reduce. Instances are recycled
// through the group's free list once every rank has waited, so the steady
// state of an overlapped training loop allocates no handles or slots.
type collective struct {
	mu       sync.Mutex
	cond     *sync.Cond
	bufs     [][]float32
	arrived  int
	waited   int
	complete bool
}

func newCollective(size int) *collective {
	c := &collective{bufs: make([][]float32, size)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// asyncState matches asynchronous collectives across ranks by per-rank FIFO
// sequence number: rank r's k-th async call joins every other rank's k-th
// async call (the MPI nonblocking-collective ordering contract). All ranks
// therefore must issue the same async calls in the same order — which the
// trainer guarantees, because every rank runs the same backward schedule.
type asyncState struct {
	mu       sync.Mutex
	seq      []uint64
	inflight map[uint64]*collective
	free     []*collective
}

// AllReduceMeanAsync starts an asynchronous in-place mean over data and
// returns immediately. The sum is executed by the last rank to contribute,
// in fixed rank order chunk by chunk, and each rank divides its own buffer
// by the group size in Wait, so the result is bitwise identical to the
// blocking AllReduceMean regardless of arrival order.
func (g *Group) AllReduceMeanAsync(rank int, data []float32) Handle {
	g.checkRank(rank)
	a := &g.async
	a.mu.Lock()
	s := a.seq[rank]
	a.seq[rank]++
	c := a.inflight[s]
	if c == nil {
		if n := len(a.free); n > 0 {
			c = a.free[n-1]
			a.free = a.free[:n-1]
		} else {
			c = newCollective(g.size)
		}
		a.inflight[s] = c
	}
	a.mu.Unlock()

	c.mu.Lock()
	c.bufs[rank] = data
	c.arrived++
	last := c.arrived == g.size
	if last {
		// Deterministic reduction: accumulate ranks in index order into
		// rank 0's buffer, one chunk at a time (the wire granularity), then
		// fan the result out. Elementwise order matches the blocking path,
		// so the sums are bitwise identical.
		reduceChunks(c.bufs)
		c.complete = true
		c.cond.Broadcast()
	}
	c.mu.Unlock()
	if last {
		// Every rank has initiated, so no one will look this sequence
		// number up again; drop it from the match table.
		a.mu.Lock()
		delete(a.inflight, s)
		a.mu.Unlock()
	}
	return Handle{c: c, g: g, rank: rank}
}

// reduceChunks sums bufs[1..] into bufs[0] chunk by chunk in rank order,
// then copies the result to every other buffer.
func reduceChunks(bufs [][]float32) {
	if len(bufs) == 1 {
		return
	}
	acc := bufs[0]
	for lo := 0; lo < len(acc); lo += ChunkElems {
		hi := lo + ChunkElems
		if hi > len(acc) {
			hi = len(acc)
		}
		for r := 1; r < len(bufs); r++ {
			tensor.Axpy(1, bufs[r][lo:hi], acc[lo:hi])
		}
	}
	for r := 1; r < len(bufs); r++ {
		copy(bufs[r], acc)
	}
}

// Wait blocks until the collective completes, applies the mean scaling to
// this rank's buffer, and recycles the collective once every rank has
// waited.
func (h Handle) Wait() {
	c := h.c
	c.mu.Lock()
	for !c.complete {
		c.cond.Wait()
	}
	buf := c.bufs[h.rank]
	size := len(c.bufs)
	c.waited++
	recycle := c.waited == size
	if recycle {
		for i := range c.bufs {
			c.bufs[i] = nil
		}
		c.arrived, c.waited, c.complete = 0, 0, false
	}
	c.mu.Unlock()
	if size > 1 {
		tensor.Scale(1/float32(size), buf)
	}
	if recycle {
		a := &h.g.async
		a.mu.Lock()
		a.free = append(a.free, c)
		a.mu.Unlock()
	}
}

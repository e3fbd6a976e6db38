package tensor

// Arena is a size-bucketed recycler of float32 slabs, the memory substrate
// under nn's compiled execution plans. Plans allocate every activation,
// scratch and gradient buffer from an arena exactly once at compile time;
// at steady state Forward/Backward touch no allocator at all, which is the
// property the serving hot path and the training inner loop are built on
// (the role memory planners play in framework executors — cf. the paper's
// §II-A discussion of why repeated fixed-shape passes dominate DL compute).
//
// Slabs are bucketed by capacity rounded up to the next power of two, so a
// released slab can back any later request of equal-or-smaller bucket: the
// plans of different batch sizes in one serving replica's cache share slabs
// instead of multiplying memory. Get always returns zeroed memory
// ("deterministic reset"): an arena-backed tensor is indistinguishable from
// a fresh tensor.New, so recycling can never leak one batch's values into
// the next.
//
// An Arena is deliberately unsynchronised. Every owner in this repository
// (a worker replica, a training replica) is single-goroutine by contract;
// sharing one arena across goroutines is a bug the race detector will
// catch, not a supported mode.
type Arena struct {
	buckets map[int][][]float32
	held    int64 // floats sitting in free lists
	total   int64 // floats ever allocated through this arena
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{buckets: make(map[int][][]float32)}
}

// bucketCap rounds n up to the bucket capacity: the next power of two, with
// a small floor so tiny requests (biases, per-class rows) share one bucket.
func bucketCap(n int) int {
	const floor = 64
	c := floor
	for c < n {
		c <<= 1
	}
	return c
}

// Get returns a zeroed slice of length n backed by a bucket-capacity slab,
// reusing a released slab when one fits. n == 0 returns nil.
func (a *Arena) Get(n int) []float32 {
	if n == 0 {
		return nil
	}
	c := bucketCap(n)
	if free := a.buckets[c]; len(free) > 0 {
		s := free[len(free)-1]
		a.buckets[c] = free[:len(free)-1]
		a.held -= int64(c)
		s = s[:n]
		clear(s)
		return s
	}
	a.total += int64(c)
	return make([]float32, n, c)
}

// GetTensor returns a zeroed tensor of the given shape over an arena slab.
func (a *Arena) GetTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: a.Get(n)}
}

// Put returns a slab obtained from Get to its bucket. The caller must not
// use s afterwards. Slabs whose capacity is not a bucket size (i.e. not
// from Get) are rejected so foreign memory cannot poison the free lists.
func (a *Arena) Put(s []float32) {
	c := cap(s)
	if c == 0 {
		return
	}
	if c != bucketCap(c) {
		panic("tensor: Arena.Put of a slab not allocated by Get")
	}
	a.buckets[c] = append(a.buckets[c], s[:c])
	a.held += int64(c)
}

// PutTensor releases t's backing slab (see Put) and clears t's Data so
// accidental reuse fails fast instead of aliasing recycled memory.
func (a *Arena) PutTensor(t *Tensor) {
	a.Put(t.Data)
	t.Data = nil
}

// Staging is a reusable batch tensor over arena slabs: Batch(n) returns a
// zero-copy [n, perSample...] view, growing the slab (through the arena)
// only when n exceeds every batch seen before. Training replicas stage
// their input batches and loss gradients through it so steady-state
// iterations never touch the allocator. Like the arena under it, a Staging
// is single-goroutine.
type Staging struct {
	arena *Arena
	shape []int // per-sample
	per   int
	slab  []float32
	t     *Tensor
}

// NewStaging builds a staging buffer for per-sample shape perSample over a.
func NewStaging(a *Arena, perSample ...int) *Staging {
	per := 1
	for _, d := range perSample {
		per *= d
	}
	return &Staging{arena: a, shape: append([]int(nil), perSample...), per: per}
}

// Batch returns the staging tensor resized to n samples. The view is owned
// by the Staging and valid until the next Batch call.
func (s *Staging) Batch(n int) *Tensor {
	need := n * s.per
	if cap(s.slab) < need {
		if s.slab != nil {
			s.arena.Put(s.slab)
		}
		got := s.arena.Get(need) // zeroed up to need
		s.slab = got[:cap(got)]
		clear(s.slab[need:]) // keep the whole working extent zeroed
		s.t = FromSlice(s.slab[:need], append([]int{n}, s.shape...)...)
	}
	s.t.Shape[0] = n
	s.t.Data = s.slab[:need]
	return s.t
}

// ArenaStats reports an arena's footprint.
type ArenaStats struct {
	HeldFloats  int64 // floats in free lists (released, reusable)
	TotalFloats int64 // floats ever allocated (live + held)
}

// Bytes returns the total allocated footprint in bytes.
func (s ArenaStats) Bytes() int64 { return s.TotalFloats * 4 }

// Stats snapshots the arena's accounting.
func (a *Arena) Stats() ArenaStats {
	return ArenaStats{HeldFloats: a.held, TotalFloats: a.total}
}

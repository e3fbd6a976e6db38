package tensor

// Arena hands out the float32 slabs under nn's compiled execution plans and
// counts them. A plan lays its activation, scratch and gradient buffers out
// at compile time (nn's layout) and draws them as one slab of exactly the
// size the layout needs; at steady state Forward/Backward touch no
// allocator at all, which is the property the serving hot path and the
// training inner loop are built on (the role memory planners play in
// framework executors — cf. the paper's §II-A discussion of why repeated
// fixed-shape passes dominate DL compute). Get returns zeroed memory.
//
// Nothing is recycled: a slab lives as long as the plan that holds it, and
// a released plan's slab goes back to the Go heap. The plans of one
// serving replica's cache therefore hold their slabs side by side; what an
// arena shared between them reports is their sum.
//
// An Arena is deliberately unsynchronised. Every owner in this repository
// (a worker replica, a training replica) is single-goroutine by contract;
// sharing one arena across goroutines is a bug the race detector will
// catch, not a supported mode.
type Arena struct {
	total int64 // floats handed out through this arena
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Get returns a zeroed slab of exactly n floats. n == 0 returns nil.
func (a *Arena) Get(n int) []float32 {
	if n == 0 {
		return nil
	}
	a.total += int64(n)
	return make([]float32, n)
}

// GetTensor returns a zeroed tensor of the given shape over an arena slab.
func (a *Arena) GetTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: a.Get(n)}
}

// Staging is a reusable batch tensor over an arena slab: Batch(n) returns a
// zero-copy [n, perSample...] view, growing the slab (through the arena) to
// exactly n samples only when n exceeds every batch seen before. Training
// replicas stage their input batches and loss gradients through it so
// steady-state iterations never touch the allocator. Like the arena under
// it, a Staging is single-goroutine.
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
	if len(s.slab) < need {
		s.slab = s.arena.Get(need)
		s.t = FromSlice(s.slab, append([]int{n}, s.shape...)...)
	}
	s.t.Shape[0] = n
	s.t.Data = s.slab[:need]
	return s.t
}

// ArenaStats reports an arena's footprint.
type ArenaStats struct {
	TotalFloats int64 // floats ever handed out
}

// Bytes returns the total allocated footprint in bytes.
func (s ArenaStats) Bytes() int64 { return s.TotalFloats * 4 }

// Stats snapshots the arena's accounting.
func (a *Arena) Stats() ArenaStats { return ArenaStats{TotalFloats: a.total} }

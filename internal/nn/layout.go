package nn

import (
	"cmp"
	"math"
	"slices"

	"deep15pf/internal/tensor"
)

// layout is a plan's memory plan: every float buffer its steps use, with
// the span of the plan's step clock over which the buffer holds a value,
// placed in one slab of exactly the size the placement needs. Buffers
// whose spans do not meet share bytes — an inference plan's activations
// ping-pong, and a training plan's input gradients and per-step backward
// scratch reuse each other's bytes. A pinned buffer spans the whole clock
// and shares with nothing: the halo images, whose padding the direct steps
// read as the zeros of a fresh slab (no step writes them), the C block
// every step uses, and what Forward and Backward return.
//
// The clock is a plan's schedule: forward step i at time i and, in a
// training plan of L steps, backward step i at 2L−1−i. Placement is greedy
// by size — the largest buffer first, each at the lowest offset clear of
// every placed buffer whose span meets its own — the offset planner of
// framework executors, which on these chain-shaped schedules comes within
// a few percent of the peak of live bytes.
type layout struct {
	bufs []region
	len  int // the slab, in floats
}

// region is one buffer of a layout.
type region struct {
	dst         *[]float32 // set by place
	n           int
	first, last int // the span, inclusive
	off         int
}

// always is the end of a span that lasts until the plan is dropped.
const always = math.MaxInt

// add registers a buffer of n floats live from clock first to last.
func (l *layout) add(dst *[]float32, n, first, last int) {
	if n > 0 {
		l.bufs = append(l.bufs, region{dst: dst, n: n, first: first, last: last})
	}
}

// pin registers a buffer that shares with nothing.
func (l *layout) pin(dst *[]float32, n int) { l.add(dst, n, 0, always) }

func (r *region) meets(o *region) bool { return r.first <= o.last && o.first <= r.last }

func (r *region) pinned() bool { return r.first == 0 && r.last == always }

// place lays the buffers out, draws the slab from a and points every
// buffer at its bytes (capacity clipped, so no append can spill into a
// neighbour).
func (l *layout) place(a *tensor.Arena) []float32 {
	order := make([]int, len(l.bufs))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(l.bufs[j].n, l.bufs[i].n) })
	var placed, clash []*region
	for _, i := range order {
		r := &l.bufs[i]
		clash = clash[:0]
		for _, o := range placed {
			if r.meets(o) {
				clash = append(clash, o)
			}
		}
		slices.SortFunc(clash, func(a, b *region) int { return cmp.Compare(a.off, b.off) })
		for _, o := range clash {
			if r.off+r.n <= o.off {
				break
			}
			r.off = max(r.off, o.off+o.n)
		}
		l.len = max(l.len, r.off+r.n)
		placed = append(placed, r)
	}
	slab := a.Get(l.len)
	for _, r := range l.bufs {
		*r.dst = slab[r.off : r.off+r.n : r.off+r.n]
	}
	return slab
}

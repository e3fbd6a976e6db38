// Package data provides dataset plumbing shared by the HEP and climate
// applications: epoch-shuffled batch iteration and a binary shard file
// format used to measure real input I/O (the paper's Fig 5 breaks out I/O
// time — 13% of the climate iteration, ~2% for HEP — so the harness reads
// samples back from disk rather than pretending generation is free).
package data

import (
	"fmt"

	"deep15pf/internal/tensor"
)

// Batcher yields epoch-shuffled minibatch index sets over a dataset of N
// samples. Each epoch uses a fresh permutation from the supplied RNG; the
// final short batch of an epoch is emitted as-is.
type Batcher struct {
	N, BatchSize int
	rng          *tensor.RNG
	perm         []int
	pos          int
	epoch        int
}

// NewBatcher constructs a batcher over n samples.
func NewBatcher(n, batchSize int, rng *tensor.RNG) *Batcher {
	if n <= 0 || batchSize <= 0 {
		panic(fmt.Sprintf("data: invalid batcher n=%d batch=%d", n, batchSize))
	}
	b := &Batcher{N: n, BatchSize: batchSize, rng: rng}
	b.reshuffle()
	return b
}

func (b *Batcher) reshuffle() {
	b.perm = b.rng.Perm(b.N)
	b.pos = 0
}

// Epoch returns the number of completed passes over the data.
func (b *Batcher) Epoch() int { return b.epoch }

// Next returns the next batch of sample indices, reshuffling at epoch
// boundaries.
func (b *Batcher) Next() []int {
	if b.pos >= b.N {
		b.epoch++
		b.reshuffle()
	}
	end := b.pos + b.BatchSize
	if end > b.N {
		end = b.N
	}
	out := b.perm[b.pos:end]
	b.pos = end
	return out
}

// Split partitions n samples into parts nearly equal shares, returning
// [lo,hi) bounds per part. Used to shard a group batch across workers the
// way data-parallel training splits a minibatch.
//
// parts may exceed n (an epoch's short tail batch split over a large worker
// group): the trailing parts come back as empty [x,x) ranges. Consumers
// must skip those — an empty shard is a worker idling this iteration, never
// a zero-sample batch to stage or compile a plan for (the trainers and
// Pipeline sources uphold this; see SliceSource).
func Split(n, parts int) [][2]int {
	Part(n, parts, 0) // validates
	out := make([][2]int, parts)
	for i := range out {
		out[i][0], out[i][1] = Part(n, parts, i)
	}
	return out
}

// Part is Split(n, parts)[i] without building the slice: the half-open
// range of part i, the first n%parts parts one longer than the rest.
func Part(n, parts, i int) (lo, hi int) {
	if parts <= 0 {
		panic("data: Split with non-positive parts")
	}
	if n < 0 {
		panic("data: Split with negative n")
	}
	base, rem := n/parts, n%parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// VolumeBytes returns the raw float32 volume of a dataset with the given
// per-sample shape — the quantity in Table I's "Volume" column.
func VolumeBytes(numSamples int, sampleShape ...int) int64 {
	elems := int64(1)
	for _, d := range sampleShape {
		elems *= int64(d)
	}
	return int64(numSamples) * elems * 4
}

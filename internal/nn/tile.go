package nn

import (
	"sync/atomic"

	"deep15pf/internal/tensor"
)

// InferTile is the largest batch an inference plan materialises whole. A
// plan compiled above it (Compile with train=false, CompileQuantized with
// frozen scales) holds no activations of its own: Forward cuts the batch
// into tiles of this many samples and runs each depth-first through the
// whole network on a tile-capacity sub-plan, so a lane holds one tile's
// activations (2 MB for hep-small at 32, against 16 MB for a whole batch of
// 256). Every output element is the same per-sample arithmetic whatever
// the batch (Conv2D.ForwardInto), so the tiling cannot change a bit.
// 16, 32 and 64 read the same on both precisions, within this host's
// spread (EXPERIMENTS.md "PR 24"): what pays is one lane per thread with
// no fork underneath, not the tile's size. 32 keeps a lane's memory at a
// batcher-sized plan's and gives two lanes work from a batch of 33.
//
// The tiler's clients are the plans the serving side compiles above the
// tile: serve.InferBatch and the batcher's larger buckets. bulk.Engine is
// not one: it stages tiles of this size itself and runs them on lanes
// that live for a whole scoring run, one replica each, so it never
// compiles a plan above the tile.
const InferTile = 32

// lanePlan is what a tiler runs tiles through: a Plan or a QuantPlan of
// capacity InferTile.
type lanePlan interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Release()
}

// tiler executes a plan whose capacity exceeds InferTile. It owns one lane
// per kernel thread in use — min(tensor.Workers(), tiles), minted on the
// first Forward that needs them — and the [capacity, out...] slab the lanes
// write their tiles' outputs into. Lanes pull tile indices from a counter.
// Their one fork-join per Forward is the only fork in nn: every layer runs
// on the goroutine that calls it, and below that only a GEMM of at least
// tensor's gemmParallelMin multiply-adds splits (no hep-small tile's does).
// The caller stays single-goroutine; lanes never outlive a Forward.
type tiler struct {
	mint          func() lanePlan // compiles one lane's sub-plan; caller's goroutine only
	lanes         []*tileLane
	inPer, outPer int
	out           []float32
	y             *tensor.Tensor
	x             []float32 // the batch being run, n samples
	n             int
	next          atomic.Int32 // the next tile to hand out
}

// tileLane is one sub-plan and the view of the input tile it is running.
type tileLane struct {
	plan lanePlan
	in   tensor.Tensor
}

func newTiler(arena *tensor.Arena, capacity int, in, out []int, mint func() lanePlan) *tiler {
	t := &tiler{mint: mint, inPer: shapeElems(in), outPer: shapeElems(out)}
	t.out = arena.Get(capacity * t.outPer)
	t.y = tensor.FromSlice(t.out, append([]int{capacity}, out...)...)
	return t
}

// forward runs x (already validated by the host plan) and returns the
// host-owned output. With one worker, or one tile, the tiles run on the
// caller and nothing is allocated.
func (t *tiler) forward(x *tensor.Tensor) *tensor.Tensor {
	t.x, t.n = x.Data, x.Shape[0]
	w := min(tensor.Workers(), (t.n+InferTile-1)/InferTile)
	for len(t.lanes) < w {
		t.lanes = append(t.lanes, &tileLane{t.mint(), tensor.Tensor{Shape: append([]int(nil), x.Shape...)}})
	}
	t.next.Store(0)
	if w == 1 {
		t.runLane(t.lanes[0])
	} else {
		tensor.ParallelFor(w, func(lo, hi int) {
			for _, l := range t.lanes[lo:hi] {
				t.runLane(l)
			}
		})
	}
	t.x = nil
	return view(t.y, t.out, t.n, t.outPer)
}

// runLane runs tiles on lane l until none are left.
func (t *tiler) runLane(l *tileLane) {
	for {
		lo := (int(t.next.Add(1)) - 1) * InferTile
		if lo >= t.n {
			return
		}
		hi := min(lo+InferTile, t.n)
		l.in.Shape[0], l.in.Data = hi-lo, t.x[lo*t.inPer:hi*t.inPer]
		copy(t.out[lo*t.outPer:], l.plan.Forward(&l.in).Data)
	}
}

func (t *tiler) release() {
	for _, l := range t.lanes {
		l.plan.Release()
	}
	t.lanes, t.out, t.y = nil, nil, nil
}

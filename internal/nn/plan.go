package nn

import (
	"fmt"

	"deep15pf/internal/tensor"
)

// Plan is a compiled execution schedule for a Network at a fixed maximum
// batch size: every activation, every piece of kernel scratch and — for
// training plans — every input-gradient buffer is allocated from an arena
// once, at compile time. Steady-state Forward (and Backward) then run with
// zero allocation. Plans are the only executor: a Network describes, a
// plan (or QuantPlan, or a composition of plans such as climate.TrainPlan)
// runs. Slab views, the capacity (a ceiling, not a pad) and arena sharing
// never change a bit of the result — the tests hold every plan to the
// layers' ForwardInto/BackwardInto run one by one into fresh tensors.
//
// This is the repository's version of the execution-plan/memory-plan stage
// every production framework runs before its hot loop (the paper's
// Intel-Caffe stack gets it from Caffe's preallocated blobs): serving
// replicas, training replicas and one-shot scorers all pay shape-dependent
// setup once and then never touch the allocator.
//
// A Plan is single-goroutine for its caller, like the replica that owns it:
// one Forward or Backward at a time. An inference plan compiled above
// inferTile runs its batch as tiles on one lane per kernel thread (tile.go);
// the lanes are forked and joined inside Forward. Tensors returned by
// Forward/Backward are plan-owned views, valid only until the next call;
// callers that need to retain results must copy.
type Plan struct {
	net      *Network
	capacity int
	train    bool
	arena    *tensor.Arena
	steps    []planStep
	cut      int      // first step the backward pass reaches (0 unless frozen)
	params   []*Param // cached trainable params: Backward re-checks gradient presence
	n        int      // batch size of the most recent Forward
	// evalSt is the one state every eval-datapath step that is not a halo
	// step executes under — in an inference plan or a training plan's
	// frozen prefix, the steps fuse leaves alone: strided convolutions,
	// deconvolutions, dense and pooling layers. Such a step keeps nothing
	// between calls and the steps run one at a time, so they share a single
	// lowering scratch sized for the largest of them rather than each
	// holding its own; a plan whose convolutions all fuse (hep-small's)
	// reserves none.
	evalSt PlanState
	cblk   []float32 // the halo steps' shared C block
	tiles  *tiler    // non-nil: an inference plan above inferTile; steps is empty
}

type planStep struct {
	layer    Layer
	st       PlanState
	train    bool  // run the training datapath (false for the frozen prefix)
	trainIdx int   // index into TrainableLayers order, -1 if parameter-free or frozen
	inShape  []int // per-sample
	outShape []int // per-sample
	inPer    int   // per-sample input elements
	outPer   int   // per-sample output elements
	ySlab    []float32
	y        *tensor.Tensor // batch view over ySlab
	dxSlab   []float32      // training plans only, steps at/after the cut
	dx       *tensor.Tensor
	halo     *haloConv // non-nil: a stride-1 convolution run as a halo step
}

// Compile builds a plan for batches of up to capacity samples. A training
// plan (train=true) additionally preallocates input-gradient buffers and
// retains per-layer backward state; compiling one over a network whose
// gradient accumulators were released panics — release gradients only on
// inference replicas (see Network.ReleaseGradients). arena == nil gives the
// plan a private arena; passing a shared arena lets several plans (e.g. a
// serving replica's per-batch-size cache) recycle each other's slabs. Every
// plan runs each stride-1 convolution as a halo step (fuse, halo.go), which
// never lowers its input; an inference plan above inferTile costs lanes ×
// tile slabs plus one output slab, whatever its capacity.
//
// Networks with a frozen prefix (Network.Freeze) compile the prefix steps
// on the inference datapath even in a training plan: no input-gradient
// slabs, no retained backward state, no argmax buffers, and the inference
// plan's link rule. The eval forward performs the identical floating-point
// operations in the same order as the train forward (see
// Conv2D.ForwardInto), so the trajectory is bitwise-unchanged — the frozen
// prefix just stops paying training memory and backward compute.
func Compile(net *Network, capacity int, train bool, arena *tensor.Arena) *Plan {
	if capacity < 1 {
		panic("nn: plan capacity must be positive")
	}
	if arena == nil {
		arena = tensor.NewArena()
	}
	p := &Plan{net: net, capacity: capacity, train: train, arena: arena, params: net.TrainableParams()}
	if train {
		p.cut = net.backwardCut() // panics on a fully frozen network
		for _, prm := range p.params {
			if prm.Grad == nil {
				panic(fmt.Sprintf("nn: training plan for %s: parameter %s has released gradients (ReleaseGradients); compile an inference plan instead", net.NetName, prm.Name))
			}
		}
	}
	if !train && capacity > inferTile {
		p.tiles = newTiler(arena, capacity, net.InShape, net.OutShape(), func() lanePlan {
			return Compile(net, inferTile, false, arena)
		})
		return p
	}
	in := net.InShape
	p.steps = make([]planStep, len(net.Layers))
	trainables := 0
	for i, l := range net.Layers {
		out := l.OutShape(in)
		s := &p.steps[i]
		s.layer = l
		s.train = train && i >= p.cut
		s.trainIdx = -1
		if len(l.Params()) > 0 && !net.frozen[l] {
			s.trainIdx = trainables
			trainables++
		}
		s.inShape = append([]int(nil), in...)
		s.outShape = append([]int(nil), out...)
		s.inPer = shapeElems(in)
		s.outPer = shapeElems(out)
		in = out
	}
	p.fuse()
	blk := 0
	for i := range p.steps {
		s := &p.steps[i]
		if s.layer == nil {
			continue // folded into the halo step before it
		}
		if h := s.halo; h != nil {
			h.images = arena.Get(capacity * h.inC * h.plane)
			blk = max(blk, h.blockLen())
			if s.train {
				h.reserve(arena, capacity)
			}
		}
		if s.halo == nil || s.halo.next == nil { // else stored into the next image
			s.ySlab = arena.Get(capacity * s.outPer)
			s.y = tensor.FromSlice(s.ySlab, append([]int{capacity}, s.outShape...)...)
		}
		if s.train {
			s.dxSlab = arena.Get(capacity * s.inPer)
			s.dx = tensor.FromSlice(s.dxSlab, append([]int{capacity}, s.inShape...)...)
		}
		if s.halo == nil {
			s.layer.Reserve(p.state(s), arena, capacity, s.inShape, s.train)
		}
	}
	p.cblk = arena.Get(blk)
	return p
}

// fuse is the link rule, one for training and eval steps: every stride-1
// Conv2D becomes a halo step (halo.go); the step folds a ReLU that follows
// it, then a 2×2/2 max-pool, into its store — their steps drop out of the
// schedule and the halo step takes over their output shape — and it
// stores straight into the next step's halo image when that step is a halo
// step too. A training step's store also records the pool's winners, and
// its backward unpools through them and the ReLU's gate (the stored
// values), so the folded layers need no state of their own. Strided
// convolutions, deconvolutions and every other layer keep their
// ForwardInto.
func (p *Plan) fuse() {
	for i := range p.steps {
		if c, ok := p.steps[i].layer.(*Conv2D); ok && c.Stride == 1 {
			p.steps[i].halo = newHaloConv(c, p.steps[i].inShape)
		}
	}
	at := func(j int) Layer {
		if j < len(p.steps) {
			return p.steps[j].layer
		}
		return nil
	}
	for i := range p.steps {
		s := &p.steps[i]
		h := s.halo
		if h == nil {
			continue
		}
		j := i + 1
		if _, h.relu = at(j).(*ReLU); h.relu {
			j++
		}
		if mp, _ := at(j).(*MaxPool2D); h.fold(mp) {
			j++
		}
		for k := i + 1; k < j; k++ {
			p.steps[k].layer = nil
		}
		s.outShape, s.outPer = p.steps[j-1].outShape, p.steps[j-1].outPer
		if j < len(p.steps) && p.steps[j].halo != nil {
			h.next = p.steps[j].halo
			h.next.fed = true
		}
	}
}

// state returns the execution state step s runs under.
func (p *Plan) state(s *planStep) *PlanState {
	if s.train {
		return &s.st
	}
	return &p.evalSt
}

// OutShape returns the per-sample output shape.
func (p *Plan) OutShape() []int { return append([]int(nil), p.net.OutShape()...) }

// view repoints t at the first n samples of its slab. The in-place resize
// is what keeps variable batch sizes allocation-free.
func view(t *tensor.Tensor, slab []float32, n, per int) *tensor.Tensor {
	t.Shape[0] = n
	t.Data = slab[:n*per]
	return t
}

// Forward runs the network over x ([N, InShape...], N ≤ capacity) and
// returns the plan-owned output, valid until the next Forward. A training
// plan runs train-mode layers (retaining backward state and x itself until
// the next call); an inference plan runs the eval datapath and retains
// nothing.
func (p *Plan) Forward(x *tensor.Tensor) *tensor.Tensor {
	n := checkInput("plan", x, p.net.InShape, p.capacity)
	if p.tiles != nil {
		return p.tiles.forward(x)
	}
	p.n = n
	cur := x
	for i := range p.steps {
		s := &p.steps[i]
		if s.layer == nil {
			continue // folded into the halo step before it
		}
		var y *tensor.Tensor
		if s.ySlab != nil {
			y = view(s.y, s.ySlab, n, s.outPer)
		}
		if s.halo != nil {
			s.halo.forward(y, cur, n, p.cblk)
		} else {
			s.layer.ForwardInto(p.state(s), y, cur, s.train)
		}
		cur = y // nil after a halo step that fed the next one
	}
	return cur
}

// Backward propagates dout ([N, OutShape...] matching the last Forward)
// through a training plan, accumulating parameter gradients, and returns
// the plan-owned gradient with respect to the network input (valid until
// the next Backward).
func (p *Plan) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return p.BackwardStream(dout, nil)
}

// BackwardStream is Backward with per-layer completion notification: after
// the t-th trainable layer's BackwardInto returns — the moment its
// accumulated parameter gradients are final, since no other layer touches
// them — gradDone(t) fires on the calling goroutine. Layers complete in
// reverse topological order, so t runs from the deepest trainable layer
// down to 0. This is the hook the overlapped trainer uses to start
// exchanging layer t's gradients while the rest of the backward pass is
// still executing (the paper's §III-E pipelining). gradDone == nil degrades
// to plain Backward. Over a network with a frozen prefix the pass stops at
// the first trainable layer and returns the gradient at that boundary.
func (p *Plan) BackwardStream(dout *tensor.Tensor, gradDone func(layer int)) *tensor.Tensor {
	return p.backward(dout, gradDone, true)
}

// BackwardParams is BackwardStream for a caller that only wants parameter
// gradients, which is every trainer whose network input is data rather than
// another network's output. The first layer the pass reaches is told not to
// compute its input gradient (BackwardInto with a nil dx), so a leading
// convolution skips its adjoint — the widest plane of the network, feeding
// a result nobody reads. Parameter gradients and gradDone
// notifications are exactly those of BackwardStream.
func (p *Plan) BackwardParams(dout *tensor.Tensor, gradDone func(layer int)) {
	p.backward(dout, gradDone, false)
}

func (p *Plan) backward(dout *tensor.Tensor, gradDone func(layer int), inputGrad bool) *tensor.Tensor {
	if !p.train {
		panic("nn: Backward on an inference plan")
	}
	if p.n == 0 {
		panic("nn: plan Backward before Forward")
	}
	for _, prm := range p.params {
		if prm.Grad == nil {
			panic(fmt.Sprintf("nn: plan Backward: parameter %s gradients were released mid-training", prm.Name))
		}
	}
	last := &p.steps[len(p.steps)-1]
	if dout.Len() != p.n*last.outPer {
		panic(fmt.Sprintf("nn: plan Backward gradient size %d, want %d", dout.Len(), p.n*last.outPer))
	}
	cur := dout
	for i := len(p.steps) - 1; i >= p.cut; i-- {
		s := &p.steps[i]
		if s.layer == nil {
			continue // folded: the halo step before it unpools through it
		}
		var dx *tensor.Tensor
		if i > p.cut || inputGrad {
			dx = view(s.dx, s.dxSlab, p.n, s.inPer)
		}
		if h := s.halo; h != nil {
			var y *tensor.Tensor
			if s.ySlab != nil {
				y = view(s.y, s.ySlab, p.n, s.outPer)
			}
			h.backward(dx, cur, y, p.n)
		} else {
			s.layer.BackwardInto(&s.st, dx, cur)
		}
		cur = dx
		if gradDone != nil && s.trainIdx >= 0 {
			gradDone(s.trainIdx)
		}
	}
	return cur
}

// Release returns the plan's activation, gradient and scratch slabs to its
// arena. The plan must not be used afterwards; a plan cache calls this when
// a bucket is evicted so a successor plan can reuse the memory.
func (p *Plan) Release() {
	if p.tiles != nil {
		p.tiles.release()
		p.tiles = nil
	}
	for i := range p.steps {
		s := &p.steps[i]
		if s.ySlab != nil {
			p.arena.Put(s.ySlab)
			s.ySlab, s.y = nil, nil
		}
		if s.dxSlab != nil {
			p.arena.Put(s.dxSlab)
			s.dxSlab, s.dx = nil, nil
		}
		if h := s.halo; h != nil {
			for _, slab := range [][]float32{h.images, h.dy, h.dyG, h.dxG} {
				p.arena.Put(slab) // a nil slab is a no-op
			}
			s.halo = nil
		}
		p.arena.Reclaim(s.st.Col)
		p.arena.Reclaim(s.st.Eval)
		s.st = PlanState{}
	}
	p.arena.Put(p.cblk)
	p.cblk = nil
	p.arena.Reclaim(p.evalSt.Col)
	p.arena.Reclaim(p.evalSt.Eval)
	p.evalSt = PlanState{}
	p.n = 0
}

// batchBucket rounds a batch size up to the plan-cache bucket: the next
// power of two. Serving batch sizes vary request by request; bucketing
// bounds a replica's cache at log2(maxBatch) plans while every plan still
// executes the exact batch it is handed (capacity is a ceiling, not a pad —
// no wasted compute).
func batchBucket(n int) int {
	b := 1
	for b < n {
		b <<= 1
	}
	return b
}

// PlanCache lazily compiles and reuses plans over one shared arena. It is
// the shape adapters sit on, with a keying policy per side of the
// train/serve divide: inference caches bucket batch sizes to the next
// power of two (the batcher produces variable sizes; log2(maxBatch) plans
// cover them all), while training caches compile at the exact batch size —
// shard sizes are stable for a whole run (see core.Replica), so bucketing
// would only pad every activation and gradient slab by up to 2x for
// nothing. Like Plan, a cache is single-goroutine.
type PlanCache struct {
	net   *Network
	train bool
	arena *tensor.Arena
	plans map[int]*Plan
}

// NewPlanCache builds an empty cache. arena == nil creates a private one.
func NewPlanCache(net *Network, train bool, arena *tensor.Arena) *PlanCache {
	if arena == nil {
		arena = tensor.NewArena()
	}
	return &PlanCache{net: net, train: train, arena: arena, plans: make(map[int]*Plan)}
}

// Plan returns the compiled plan covering batch (exact capacity for
// training caches, power-of-two bucket for inference), compiling it on
// first use.
func (pc *PlanCache) Plan(batch int) *Plan {
	if batch < 1 {
		panic("nn: plan cache batch must be positive")
	}
	b := batch
	if !pc.train {
		b = batchBucket(batch)
	}
	if p, ok := pc.plans[b]; ok {
		return p
	}
	p := Compile(pc.net, b, pc.train, pc.arena)
	pc.plans[b] = p
	return p
}

// Forward routes x through the plan for its batch size.
func (pc *PlanCache) Forward(x *tensor.Tensor) *tensor.Tensor {
	return pc.Plan(x.Shape[0]).Forward(x)
}

// Arena exposes the cache's arena so sibling plans (e.g. a model's head
// layers) can share slabs.
func (pc *PlanCache) Arena() *tensor.Arena { return pc.arena }

// Release releases every cached plan and empties the cache.
func (pc *PlanCache) Release() {
	for b, p := range pc.plans {
		p.Release()
		delete(pc.plans, b)
	}
}

// Len returns the number of compiled plans (one per batch-size bucket).
func (pc *PlanCache) Len() int { return len(pc.plans) }

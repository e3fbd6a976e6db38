package nn

import (
	"fmt"

	"deep15pf/internal/quant"
	"deep15pf/internal/tensor"
)

// QuantPlan is the int8 sibling of Plan: a compiled inference schedule in
// which every Conv2D and Dense step runs on the integer GEMM
// (tensor.GemmS8) instead of the float one. Weights quantise once at
// compile time to s8 with one symmetric scale per output channel
// (quant.ScaleForChannels); activations quantise per layer to u8 with
// zero-point 128, either with a frozen calibrated scale or dynamically
// from the batch's max magnitude. Activations between layers stay fp32 —
// ReLU, pooling and reshapes run their ordinary eval kernels — so only
// the GEMM-shaped work changes representation, which is where all the
// time goes and the only place int8 pays.
//
// Requantisation: with activation scale sA, per-channel weight scale
// sW[f], integer accumulator acc and weight row sum rowSum[f],
//
//	y = sA·sW[f]·(acc − 128·rowSum[f]) + bias[f]
//
// because Σ w·v ≈ Σ (wq·sW)·((q−128)·sA) = sA·sW·(Σ wq·q − 128·Σ wq).
// Conv padding writes the zero-point byte, so its contribution is
// exactly cancelled by the same rowSum correction.
//
// Like Plan, a QuantPlan is single-goroutine, its Forward output is
// plan-owned (valid until the next call), and the warm path allocates
// nothing. Weights are captured at compile time: recompile after any
// LoadWeights.
type QuantPlan struct {
	net      *Network
	capacity int
	arena    *tensor.Arena
	steps    []qplanStep
}

type qplanStep struct {
	layer    PlannedLayer // fp32 fallback when q == nil
	st       PlanState
	q        *qkernel // int8 kernel for Conv2D/Dense steps
	outShape []int
	outPer   int
	ySlab    []float32
	y        *tensor.Tensor
}

// qcolBudget caps (in bytes) the quantized patch matrix one conv step
// lowers at once, mirroring colBudget on the float path. A variable
// only so tests can force chunking.
var qcolBudget = 2 << 20

// qkernel holds one quantized layer: exactly one of conv/dense is set.
type qkernel struct {
	conv  *Conv2D
	dense *Dense

	wq       []int8    // [Out, K] row-major, K contiguous per channel
	wscale   []float32 // per output channel
	rowSum   []int32   // Σ_p wq[f][p], the zero-point correction
	actScale float32   // frozen activation scale; 0 = dynamic per batch

	xq    []uint8 // conv: one sample's quantized image; dense: whole batch
	colU8 []uint8 // conv only: patch-major lowered chunk
	acc   []int32 // integer GEMM output
	chunk int     // conv: samples lowered per GemmS8 call

	h, w, oh, ow int // conv geometry at the plan's fixed input shape
}

// CalibrateActivations runs one fp32 forward pass over x and returns the
// max input magnitude seen at each layer (indexed like net.Layers;
// non-quantizable layers record 0). Merge several batches with
// MergeCalibration, then hand the result to CompileQuantized to freeze
// activation scales. Calibration is an offline pass and allocates freely.
func CalibrateActivations(net *Network, x *tensor.Tensor) []float32 {
	stats := make([]float32, len(net.Layers))
	cur := x
	for i, l := range net.Layers {
		switch l.(type) {
		case *Conv2D, *Dense:
			stats[i] = quant.MaxAbs(cur.Data)
		}
		cur = l.Forward(cur, false)
	}
	return stats
}

// MergeCalibration folds b into a elementwise-max and returns a.
func MergeCalibration(a, b []float32) []float32 {
	if len(a) != len(b) {
		panic("nn: MergeCalibration length mismatch")
	}
	for i, v := range b {
		if v > a[i] {
			a[i] = v
		}
	}
	return a
}

// CompileQuantized builds an int8 inference plan for batches of up to
// capacity samples. calib, if non-nil, must come from CalibrateActivations
// over this network (frozen activation scales); nil quantises activations
// dynamically per batch. arena == nil creates a private arena for the fp32
// interlayer slabs.
func CompileQuantized(net *Network, capacity int, calib []float32, arena *tensor.Arena) *QuantPlan {
	if capacity < 1 {
		panic("nn: quant plan capacity must be positive")
	}
	if calib != nil && len(calib) != len(net.Layers) {
		panic("nn: calibration stats do not match network depth")
	}
	if arena == nil {
		arena = tensor.NewArena()
	}
	p := &QuantPlan{net: net, capacity: capacity, arena: arena}
	p.steps = make([]qplanStep, len(net.Layers))
	in := net.InShape
	for i, l := range net.Layers {
		out := l.OutShape(in)
		s := &p.steps[i]
		s.outShape = append([]int(nil), out...)
		s.outPer = shapeElems(out)
		s.ySlab = arena.Get(capacity * s.outPer)
		s.y = tensor.FromSlice(s.ySlab, append([]int{capacity}, out...)...)
		switch ll := l.(type) {
		case *Conv2D:
			s.q = newQConv(ll, capacity, in, calibStat(calib, i))
		case *Dense:
			s.q = newQDense(ll, capacity, calibStat(calib, i))
		default:
			pl, ok := l.(PlannedLayer)
			if !ok {
				panic(fmt.Sprintf("nn: layer %s (%T) does not implement PlannedLayer; cannot compile a quantized plan", l.Name(), l))
			}
			s.layer = pl
			pl.Reserve(&s.st, arena, capacity, in, false)
		}
		in = out
	}
	return p
}

// calibStat returns (frozen scale, 0 meaning dynamic) for layer i.
func calibStat(calib []float32, i int) float32 {
	if calib == nil {
		return 0
	}
	if calib[i] == 0 {
		// Calibrated but the layer never saw a nonzero input: any scale
		// works; 1 matches quant.ScaleFor's fallback.
		return 1
	}
	return calib[i] / 127
}

func rowSums(wq []int8, k int) []int32 {
	sums := make([]int32, len(wq)/k)
	for f := range sums {
		var s int32
		for _, v := range wq[f*k : (f+1)*k] {
			s += int32(v)
		}
		sums[f] = s
	}
	return sums
}

func newQConv(c *Conv2D, capacity int, in []int, actScale float32) *qkernel {
	k := c.InC * c.KH * c.KW
	q := &qkernel{conv: c, actScale: actScale, h: in[1], w: in[2]}
	q.oh = tensor.ConvOut(q.h, c.KH, c.Stride, c.Pad)
	q.ow = tensor.ConvOut(q.w, c.KW, c.Stride, c.Pad)
	cols := q.oh * q.ow
	q.wscale = quant.ScaleForChannels(c.Weight.W.Data, k)
	q.wq = make([]int8, c.OutC*k)
	quant.QuantizeChannelsInto(q.wq, c.Weight.W.Data, q.wscale, k)
	q.rowSum = rowSums(q.wq, k)
	chunk := qcolBudget / (k * cols)
	if chunk < 1 {
		chunk = 1
	}
	if chunk > capacity {
		chunk = capacity
	}
	q.chunk = chunk
	q.xq = make([]uint8, c.InC*q.h*q.w)
	q.colU8 = make([]uint8, chunk*cols*k)
	q.acc = make([]int32, c.OutC*chunk*cols)
	return q
}

func newQDense(d *Dense, capacity int, actScale float32) *qkernel {
	q := &qkernel{dense: d, actScale: actScale}
	q.wscale = quant.ScaleForChannels(d.Weight.W.Data, d.In)
	q.wq = make([]int8, d.Out*d.In)
	quant.QuantizeChannelsInto(q.wq, d.Weight.W.Data, q.wscale, d.In)
	q.rowSum = rowSums(q.wq, d.In)
	q.xq = make([]uint8, capacity*d.In)
	q.acc = make([]int32, d.Out*capacity)
	return q
}

// scale returns the activation scale for this batch: frozen if calibrated,
// otherwise the batch's own max-magnitude grid.
func (q *qkernel) scale(x []float32) float32 {
	if q.actScale != 0 {
		return q.actScale
	}
	return quant.ScaleFor(x)
}

func (q *qkernel) forwardConv(y, x *tensor.Tensor) {
	c := q.conv
	n := x.Shape[0]
	k := c.InC * c.KH * c.KW
	cols := q.oh * q.ow
	sA := q.scale(x.Data[:n*c.InC*q.h*q.w])
	inStride := c.InC * q.h * q.w
	outStride := c.OutC * cols
	for s0 := 0; s0 < n; s0 += q.chunk {
		m := q.chunk
		if m > n-s0 {
			m = n - s0
		}
		mcols := m * cols
		for i := 0; i < m; i++ {
			quant.QuantizeU8Into(q.xq, x.Data[(s0+i)*inStride:(s0+i+1)*inStride], sA)
			tensor.Im2colU8(q.xq, c.InC, q.h, q.w, c.KH, c.KW, c.Stride, c.Pad, 128, q.colU8[i*cols*k:(i*cols+cols)*k])
		}
		acc := q.acc[:c.OutC*mcols]
		tensor.GemmS8(c.OutC, mcols, k, q.wq, q.colU8[:mcols*k], acc)
		for i := 0; i < m; i++ {
			dst := y.Data[(s0+i)*outStride : (s0+i+1)*outStride]
			for f := 0; f < c.OutC; f++ {
				sc := sA * q.wscale[f]
				corr := 128 * q.rowSum[f]
				var b float32
				if !c.noBias {
					b = c.Bias.W.Data[f]
				}
				src := acc[f*mcols+i*cols : f*mcols+(i+1)*cols]
				d := dst[f*cols : (f+1)*cols]
				for j := range src {
					d[j] = sc*float32(src[j]-corr) + b
				}
			}
		}
	}
}

func (q *qkernel) forwardDense(y, x *tensor.Tensor) {
	d := q.dense
	n := x.Shape[0]
	sA := q.scale(x.Data[:n*d.In])
	xq := q.xq[:n*d.In]
	quant.QuantizeU8Into(xq, x.Data[:n*d.In], sA)
	acc := q.acc[:d.Out*n]
	tensor.GemmS8(d.Out, n, d.In, q.wq, xq, acc)
	for o := 0; o < d.Out; o++ {
		sc := sA * q.wscale[o]
		corr := 128 * q.rowSum[o]
		b := d.Bias.W.Data[o]
		arow := acc[o*n : (o+1)*n]
		for s := 0; s < n; s++ {
			y.Data[s*d.Out+o] = sc*float32(arow[s]-corr) + b
		}
	}
}

// Capacity returns the largest batch the plan can run.
func (p *QuantPlan) Capacity() int { return p.capacity }

// OutShape returns the per-sample output shape.
func (p *QuantPlan) OutShape() []int {
	if len(p.steps) == 0 {
		return append([]int(nil), p.net.InShape...)
	}
	return append([]int(nil), p.steps[len(p.steps)-1].outShape...)
}

// Forward runs the int8 datapath over x ([N, InShape...], N ≤ capacity)
// and returns the plan-owned fp32 output, valid until the next call. Warm
// calls allocate nothing.
func (p *QuantPlan) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() != len(p.net.InShape)+1 {
		panic(fmt.Sprintf("nn: quant plan Forward rank %d input, want batch + %v", x.Rank(), p.net.InShape))
	}
	n := x.Shape[0]
	if n < 1 || n > p.capacity {
		panic(fmt.Sprintf("nn: quant plan Forward batch %d outside [1,%d]", n, p.capacity))
	}
	cur := x
	for i := range p.steps {
		s := &p.steps[i]
		y := view(s.y, s.ySlab, n, s.outPer)
		switch {
		case s.q != nil && s.q.conv != nil:
			s.q.forwardConv(y, cur)
		case s.q != nil && s.q.dense != nil:
			s.q.forwardDense(y, cur)
		default:
			s.layer.ForwardInto(&s.st, y, cur, false)
		}
		cur = y
	}
	return cur
}

// Release returns the fp32 slabs to the arena; integer buffers are
// plan-private and simply dropped. The plan must not be used afterwards.
func (p *QuantPlan) Release() {
	for i := range p.steps {
		s := &p.steps[i]
		if s.ySlab != nil {
			p.arena.Put(s.ySlab)
			s.ySlab, s.y = nil, nil
		}
		p.arena.Reclaim(s.st.Col)
		p.arena.Reclaim(s.st.Eval)
		s.st = PlanState{}
		s.q = nil
	}
}

// QuantPlanCache mirrors PlanCache for the int8 datapath: plans bucket to
// the next power-of-two batch over one shared arena. Single-goroutine.
type QuantPlanCache struct {
	net   *Network
	calib []float32
	arena *tensor.Arena
	plans map[int]*QuantPlan
}

// NewQuantPlanCache builds an empty cache; calib as in CompileQuantized.
func NewQuantPlanCache(net *Network, calib []float32, arena *tensor.Arena) *QuantPlanCache {
	if arena == nil {
		arena = tensor.NewArena()
	}
	return &QuantPlanCache{net: net, calib: calib, arena: arena, plans: make(map[int]*QuantPlan)}
}

// Plan returns the compiled plan for the batch's bucket, compiling on
// first use.
func (pc *QuantPlanCache) Plan(batch int) *QuantPlan {
	if batch < 1 {
		panic("nn: quant plan cache batch must be positive")
	}
	b := batchBucket(batch)
	if p, ok := pc.plans[b]; ok {
		return p
	}
	p := CompileQuantized(pc.net, b, pc.calib, pc.arena)
	pc.plans[b] = p
	return p
}

// Forward routes x through the plan for its batch size.
func (pc *QuantPlanCache) Forward(x *tensor.Tensor) *tensor.Tensor {
	return pc.Plan(x.Shape[0]).Forward(x)
}

// Release releases every cached plan and empties the cache.
func (pc *QuantPlanCache) Release() {
	for b, p := range pc.plans {
		p.Release()
		delete(pc.plans, b)
	}
}

// WeightScales returns the per-output-channel int8 scales for every
// quantizable parameter tensor in net, keyed by parameter name — the
// serving registry stores these alongside the checkpoint weights so the
// int8 datapath's grid is inspectable without recompiling a plan.
func WeightScales(net *Network) map[string][]float32 {
	out := make(map[string][]float32)
	for _, l := range net.Layers {
		switch ll := l.(type) {
		case *Conv2D:
			out[ll.Weight.Name] = quant.ScaleForChannels(ll.Weight.W.Data, ll.InC*ll.KH*ll.KW)
		case *Dense:
			out[ll.Weight.Name] = quant.ScaleForChannels(ll.Weight.W.Data, ll.In)
		}
	}
	return out
}

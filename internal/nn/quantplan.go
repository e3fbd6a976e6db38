package nn

import (
	"slices"

	"deep15pf/internal/quant"
	"deep15pf/internal/tensor"
)

// QuantPlan is the int8 sibling of Plan: a compiled inference schedule in
// which every Conv2D and Dense step runs on the integer micro-kernel
// (tensor.ConvS8) instead of the float GEMM. Weights quantise once at
// compile time to s8 with one symmetric scale per output channel
// (quant.ScaleForChannels); activations quantise per layer to u8 with
// zero-point 128 on a scale frozen by calibration (CalibrateActivations).
//
// Layout. A quantized step reads its input as [N][H+2p][W+2p][C4] bytes:
// channel-last, C rounded up to four, with the convolution's zero padding
// materialised as a border of zero-point bytes that is written once, here,
// and never again. A 3×3 patch is then three contiguous runs of 3·C4 bytes
// and the kernel walks the image in place; nothing is lowered. A dense
// layer is the same step with a kernel as large as its input, and since
// its output is one pixel per sample, the batch is its row of pixels.
//
// Requantisation: with activation scale sA, per-channel weight scale
// sW[f], integer accumulator acc and weight sum rowSum[f],
//
//	y = sA·sW[f]·(acc − 128·rowSum[f]) + bias[f]
//
// because Σ w·v ≈ Σ (wq·sW)·((q−128)·sA) = sA·sW·(Σ wq·q − 128·Σ wq).
// Border and pad-channel bytes are the zero-point, so the same correction
// cancels them exactly.
//
// Between layers. When everything between a quantized step and the next
// one is ReLU and at most one 2×2/2 max-pool over an even plane, the
// epilogue quantizes y straight onto the consumer's grid and writes the
// consumer's padded image; the fp32 activation never exists. With the pool,
// the step computes its output rows in pairs and requantizes only each
// window's largest int32 accumulator (tensor.RequantPoolU8). That is exact,
// not approximate: acc ↦ byte is non-decreasing (the multiplier sA·sW is
// never negative), so it commutes with max, and ReLU is a lower clamp at
// the byte 0 lands on. With any other layer in between — another pool
// geometry, or the global average pool in front of the HEP classifier —
// the step stores fp32 NCHW and the ordinary eval kernels run.
//
// Like Plan, a QuantPlan is single-goroutine for its caller, its Forward
// output is plan-owned (valid until the next call), and the warm path
// allocates nothing. Every sample's arithmetic is its own, so above
// InferTile the plan runs tiled like Plan (tile.go): the host keeps the
// packed weights, each lane its own images and scratch. Weights are
// captured at compile time: recompile after any LoadWeights.
type QuantPlan struct {
	net      *Network
	capacity int
	arena    *tensor.Arena
	steps    []qplanStep
	slab     []float32 // the fp32 buffers, laid out (layout.go)
	regions  []region
	tiles    *tiler // non-nil above InferTile; steps hold the lanes' prototypes
}

// qplanStep is one layer of the schedule: a quantized kernel, an fp32
// layer, or neither — a ReLU or max-pool folded into the preceding
// kernel's epilogue.
type qplanStep struct {
	layer    Layer
	st       PlanState
	q        *qkernel
	outShape []int
	outPer   int
	ySlab    []float32 // nil where the output never exists as fp32
	y        *tensor.Tensor
}

// qRunPix is how many samples a step whose output is one pixel per sample
// hands the micro-kernel at once.
const qRunPix = 64

// qkernel is one quantized Conv2D or Dense at the plan's fixed input shape.
type qkernel struct {
	inC, c4, h, w           int // input channels (and rounded up to 4: bytes per pixel), plane
	kh, kw, stride          int
	oh, ow, cols            int // output plane; cols = oh·ow
	outC                    int
	k4                      int // 4-byte groups in one kernel row: kw·c4/4
	rowStride, sampleStride int // bytes per padded image row, per padded image
	interior                int // byte offset of pixel (0,0) inside a padded image

	wq       []int8           // tensor.PackS8 panels, taps in (ky, kx, c) order
	wscale   []float32        // per output channel
	blk      []tensor.S8Block // requantize constants, one per 16 output channels
	actScale float32          // frozen activation scale

	xq  []uint8 // [capacity] padded channel-last images
	fed bool    // the preceding kernel's epilogue writes xq

	// Where the output goes: next == nil stores fp32 NCHW. Otherwise the
	// epilogue clamps at outLo (128 when a ReLU lies in between) and writes
	// next.xq, pooling 2×2 windows of accumulators first when pool is set.
	next          *qkernel
	outInv, outLo float64 // 1/next.actScale, and the lower clamp
	pool          bool

	acc []int32 // one row (two when pooling) of output pixels × 16 channels
}

// CalibrateActivations runs the batches xs through one fp32 inference
// plan, a tile of at most InferTile samples at a time, and returns the max
// input magnitude seen at each layer (indexed like net.Layers;
// non-quantizable layers record 0), max-merged over tiles and batches —
// exact, whatever the cut. Hand the result to CompileQuantized, which
// freezes the activation scales. The plan is garbage on return, so nothing
// calibration needed stays reachable from net.
func CalibrateActivations(net *Network, xs ...*tensor.Tensor) []float32 {
	stats := make([]float32, len(net.Layers))
	tile := 0
	for _, x := range xs {
		tile = max(tile, min(checkInput("calibration", x, net.InShape, x.Shape[0]), InferTile))
	}
	if tile == 0 {
		return stats
	}
	p := Compile(net, tile, false, nil)
	in := tensor.Tensor{Shape: append([]int{0}, net.InShape...)}
	per := shapeElems(net.InShape)
	for _, x := range xs {
		for lo := 0; lo < x.Shape[0]; lo += tile {
			n := min(tile, x.Shape[0]-lo)
			in.Shape[0], in.Data = n, x.Data[lo*per:][:n*per]
			p.forward(&in, n, stats)
		}
	}
	return stats
}

const errNoCalibration = "nn: an int8 plan needs activation scales from CalibrateActivations"

// CompileQuantized builds an int8 inference plan for batches of up to
// capacity samples. calib must come from CalibrateActivations over this
// network; it fixes every layer's activation scale. The fp32 interlayer
// buffers are laid out in one slab from arena (nil: a private arena).
func CompileQuantized(net *Network, capacity int, calib []float32, arena *tensor.Arena) *QuantPlan {
	if capacity < 1 {
		panic("nn: quant plan capacity must be positive")
	}
	if calib == nil {
		panic(errNoCalibration)
	}
	if len(calib) != len(net.Layers) {
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
		switch ll := l.(type) {
		case *Conv2D:
			s.q = newQKernel(ll.Weight.W.Data, ll.bias(), ll.OutC, in, ll.KH, ll.KW, ll.Stride, ll.Pad, calibStat(calib, i))
		case *Dense:
			// A dense layer is a convolution whose kernel covers its whole
			// input; a flat input is a 1×1 image of In channels.
			img := in
			if len(img) != 3 {
				img = []int{ll.In, 1, 1}
			}
			s.q = newQKernel(ll.Weight.W.Data, ll.Bias.W.Data, ll.Out, img, img[1], img[2], 1, 0, calibStat(calib, i))
		default:
			s.layer = l
		}
		in = out
	}
	if capacity > InferTile {
		p.tiles = newTiler(arena, capacity, net.InShape, net.OutShape(), p.lane)
		return p
	}
	p.provision()
	return p
}

// lane returns a tile-capacity plan over copies of p's kernels, which share
// the packed weights and requantize constants (read-only after compile)
// and get their own images, scratch and links.
func (p *QuantPlan) lane() lanePlan {
	l := &QuantPlan{net: p.net, capacity: InferTile, arena: p.arena, steps: slices.Clone(p.steps)}
	for i := range l.steps {
		if q := l.steps[i].q; q != nil {
			c := *q
			l.steps[i].q = &c
		}
	}
	l.provision()
	return l
}

// provision gives the quantized steps their buffers: images at the
// zero-point, links, scratch and the fp32 slabs that survive linking, laid
// out in one slab (layout.go) — each lives from its step to the next step
// that runs, the output until the next call.
func (p *QuantPlan) provision() {
	bytes := 0
	for i := range p.steps {
		if q := p.steps[i].q; q != nil {
			bytes += p.capacity * q.sampleStride
		}
	}
	images := make([]uint8, bytes) // one slab for all images, pinned like a Plan's
	for j := range images {
		images[j] = 128
	}
	for i := range p.steps {
		if q := p.steps[i].q; q != nil {
			n := p.capacity * q.sampleStride
			q.xq, images = images[:n:n], images[n:]
		}
	}
	p.link()
	var l layout
	in := p.net.InShape
	for i := range p.steps {
		s := &p.steps[i]
		if s.layer != nil {
			s.layer.Reserve(&s.st, p.capacity, in, false)
		}
		if q := s.q; q != nil {
			pix := q.ow
			switch {
			case q.cols == 1:
				pix = qRunPix
			case q.pool:
				pix = 2 * q.ow
			}
			q.acc = make([]int32, pix*tensor.S8Lanes)
		}
		if s.layer != nil || (s.q != nil && s.q.next == nil) {
			last := always
			if j := p.nextStep(i); j < len(p.steps) {
				last = j
			}
			l.add(&s.ySlab, p.capacity*s.outPer, i, last)
		}
		in = s.outShape
	}
	p.slab = l.place(p.arena)
	p.regions = l.bufs
	for i := range p.steps {
		if s := &p.steps[i]; s.ySlab != nil {
			s.y = tensor.FromSlice(s.ySlab, append([]int{p.capacity}, s.outShape...)...)
		}
	}
}

// nextStep returns the index of the first step after i that runs, or
// len(p.steps).
func (p *QuantPlan) nextStep(i int) int {
	for i++; i < len(p.steps) && p.steps[i].q == nil && p.steps[i].layer == nil; i++ {
	}
	return i
}

// link applies the one rule that decides where a kernel's output goes: if
// the layers up to the next kernel are ReLUs and at most one 2×2/2
// max-pool over an even plane, the epilogue feeds it bytes and the layers
// in between drop out of the schedule.
func (p *QuantPlan) link() {
	for i := range p.steps {
		q := p.steps[i].q
		if q == nil {
			continue
		}
		lo, pool, j := 0.0, false, i+1
	scan:
		for ; j < len(p.steps); j++ {
			switch l := p.steps[j].layer.(type) {
			case *ReLU:
				lo = 128
			case *MaxPool2D:
				if pool || l.K != 2 || l.Stride != 2 || q.oh%2 != 0 || q.ow%2 != 0 {
					break scan
				}
				pool = true
			default:
				break scan
			}
		}
		if j == len(p.steps) || p.steps[j].q == nil {
			continue
		}
		q.next, q.outLo, q.pool = p.steps[j].q, lo, pool
		q.outInv = 1 / float64(q.next.actScale)
		q.next.fed = true
		for k := i + 1; k < j; k++ {
			p.steps[k].layer = nil
		}
	}
}

// calibStat returns layer i's frozen activation scale.
func calibStat(calib []float32, i int) float32 {
	if calib[i] == 0 {
		// The layer never saw a nonzero input: any scale works; 1 matches
		// quant.ScaleFor's fallback.
		return 1
	}
	return calib[i] / 127
}

// newQKernel quantizes and packs one layer. weight is [outC][inC·kh·kw]
// with taps in (c, ky, kx) order — a Conv2D's, or a Dense's over a
// CHW-flattened input — and in the per-sample input shape [C, H, W].
func newQKernel(weight, bias []float32, outC int, in []int, kh, kw, stride, pad int, actScale float32) *qkernel {
	q := &qkernel{inC: in[0], h: in[1], w: in[2], kh: kh, kw: kw, stride: stride, outC: outC, actScale: actScale}
	q.c4 = (q.inC + 3) &^ 3
	q.oh = tensor.ConvOut(q.h, kh, stride, pad)
	q.ow = tensor.ConvOut(q.w, kw, stride, pad)
	q.cols = q.oh * q.ow
	q.k4 = kw * q.c4 / 4
	q.rowStride = (q.w + 2*pad) * q.c4
	q.sampleStride = (q.h + 2*pad) * q.rowStride
	q.interior = pad*q.rowStride + pad*q.c4

	k := q.inC * kh * kw
	q.wscale = quant.ScaleForChannels(weight, k)
	wq := make([]int8, outC*k)
	quant.QuantizeChannelsInto(wq, weight, q.wscale, k)
	// Reorder each channel's taps to the order the image stores them in,
	// (ky, kx, c) with c padded to c4, then pack kernel row by kernel row:
	// the micro-kernel takes one row segment of the patch per pass.
	taps := kh * kw * q.c4
	hwc := make([]int8, outC*taps)
	q.blk = make([]tensor.S8Block, (outC+tensor.S8Lanes-1)/tensor.S8Lanes)
	for f := 0; f < outC; f++ {
		var sum int32
		for c := 0; c < q.inC; c++ {
			for t := 0; t < kh*kw; t++ {
				v := wq[f*k+c*kh*kw+t]
				hwc[f*taps+t*q.c4+c] = v
				sum += int32(v)
			}
		}
		b := &q.blk[f/tensor.S8Lanes]
		b.Corr[f%tensor.S8Lanes] = 128 * sum
		b.Mult[f%tensor.S8Lanes] = actScale * q.wscale[f]
		if bias != nil {
			b.Bias[f%tensor.S8Lanes] = bias[f]
		}
	}
	q.wq = make([]int8, tensor.S8PackedLen(outC, taps))
	tensor.PackS8(q.wq, hwc, outC, taps)
	return q
}

// forward runs the step over n samples, one whole sample at a time, so a
// sample's quantize, kernel and epilogue stay in cache. xt is the fp32
// input (unread when the preceding epilogue already wrote xq), yt the fp32
// output (nil when the epilogue writes the next kernel's xq).
func (q *qkernel) forward(yt, xt *tensor.Tensor, n int) {
	var y, x []float32
	if yt != nil {
		y = yt.Data
	}
	if !q.fed {
		x = xt.Data
	}
	inv := 1 / float64(q.actScale)
	if q.cols == 1 {
		// One output pixel per sample: the samples are the row of pixels.
		for s := 0; x != nil && s < n; s++ {
			q.quantize(s, x, inv)
		}
		for s0 := 0; s0 < n; s0 += qRunPix {
			acc := q.acc[:min(qRunPix, n-s0)*tensor.S8Lanes]
			if q.next != nil {
				q.row(acc, s0*q.sampleStride, q.sampleStride, nil, q.next.image(s0), 0, q.next.sampleStride)
			} else {
				q.row(acc, s0*q.sampleStride, q.sampleStride, y, nil, s0*q.outC, q.outC)
			}
		}
		return
	}
	acc := q.acc[:q.ow*tensor.S8Lanes]
	for s := 0; s < n; s++ {
		if x != nil {
			q.quantize(s, x, inv)
		}
		if q.pool {
			for py := 0; py < q.oh/2; py++ {
				q.rowPair(s*q.sampleStride+2*py*q.stride*q.rowStride, q.next.image(s)[py*q.next.rowStride:])
			}
			continue
		}
		// Output rows go to the fp32 slab or to the consumer's padded image.
		var yq []uint8
		yoff, yps, yrow := s*q.outC*q.cols, 1, q.ow
		if q.next != nil {
			yq, yoff, yps, yrow = q.next.image(s), 0, q.next.c4, q.next.rowStride
		}
		for oy := 0; oy < q.oh; oy++ {
			q.row(acc, s*q.sampleStride+oy*q.stride*q.rowStride, q.stride*q.c4, y, yq, yoff+oy*yrow, yps)
		}
	}
}

// image returns sample s's padded image from its first interior pixel on.
func (q *qkernel) image(s int) []uint8 {
	return q.xq[s*q.sampleStride+q.interior:]
}

// row computes len(acc)/16 output pixels whose patches start ps bytes
// apart from xq[xoff], one block of 16 channels at a time, and requantizes
// each block into yq (the consumer's bytes) if there is one, else into yf
// (fp32; channels q.cols apart), from offset yoff on, pixels yps apart.
func (q *qkernel) row(acc []int32, xoff, ps int, yf []float32, yq []uint8, yoff, yps int) {
	panel := q.kh * q.k4 * 64
	for b := range q.blk {
		tensor.ConvS8(acc, q.xq[xoff:], q.wq[b*panel:(b+1)*panel], q.kh, q.k4, q.rowStride, ps)
		c0 := b * tensor.S8Lanes
		if yq != nil {
			tensor.RequantU8(yq[yoff+c0:], acc, &q.blk[b], q.outInv, q.outLo, min(tensor.S8Lanes, q.next.c4-c0), yps)
		} else {
			tensor.RequantF32(yf[yoff+c0*q.cols:], acc, &q.blk[b], min(tensor.S8Lanes, q.outC-c0), yps, q.cols)
		}
	}
}

// rowPair computes two adjacent output rows, the first's patches starting
// at xq[xoff], one block of 16 channels at a time while both rows'
// accumulators sit in L1, and requantizes the maxima of their 2×2 windows
// into yq, one row of the consumer's padded image.
func (q *qkernel) rowPair(xoff int, yq []uint8) {
	n := q.ow * tensor.S8Lanes
	r0, r1 := q.acc[:n], q.acc[n:2*n]
	panel := q.kh * q.k4 * 64
	for b := range q.blk {
		w := q.wq[b*panel : (b+1)*panel]
		tensor.ConvS8(r0, q.xq[xoff:], w, q.kh, q.k4, q.rowStride, q.stride*q.c4)
		tensor.ConvS8(r1, q.xq[xoff+q.stride*q.rowStride:], w, q.kh, q.k4, q.rowStride, q.stride*q.c4)
		c0 := b * tensor.S8Lanes
		tensor.RequantPoolU8(yq[c0:], r0, r1, &q.blk[b], q.outInv, q.outLo, min(tensor.S8Lanes, q.next.c4-c0), q.next.c4)
	}
}

// quantize writes sample s of the fp32 NCHW batch x into its padded
// channel-last image, whole pixels at a time. Border bytes keep the
// zero-point; pad channels are written with it.
func (q *qkernel) quantize(s int, x []float32, inv float64) {
	plane := q.h * q.w
	src := x[s*q.inC*plane : (s+1)*q.inC*plane]
	dst := q.image(s)
	if plane == 1 {
		tensor.QuantizeU8(dst, src, inv)
		return
	}
	tensor.QuantizePlanesU8(dst, src, q.inC, q.h, q.w, q.rowStride, q.c4, inv)
}

// OutShape returns the per-sample output shape.
func (p *QuantPlan) OutShape() []int { return append([]int(nil), p.net.OutShape()...) }

// Forward runs the int8 datapath over x ([N, InShape...], N ≤ capacity)
// and returns the plan-owned fp32 output, valid until the next call. Warm
// calls allocate nothing.
func (p *QuantPlan) Forward(x *tensor.Tensor) *tensor.Tensor {
	n := checkInput("quant plan", x, p.net.InShape, p.capacity)
	if p.tiles != nil {
		return p.tiles.forward(x)
	}
	cur := x
	for i := range p.steps {
		s := &p.steps[i]
		if s.q == nil && s.layer == nil {
			continue // folded into the preceding kernel's epilogue
		}
		var y *tensor.Tensor
		if s.ySlab != nil {
			y = view(s.y, s.ySlab, n, s.outPer)
		}
		if s.q != nil {
			s.q.forward(y, cur, n)
		} else {
			s.layer.ForwardInto(&s.st, y, cur, false)
		}
		cur = y
	}
	return cur
}

// Release drops the plan's buffers and its lanes'. The plan must not be
// used afterwards.
func (p *QuantPlan) Release() {
	if p.tiles != nil {
		p.tiles.release()
		p.tiles = nil
	}
	p.steps, p.regions, p.slab = nil, nil, nil
}

// QuantPlanCache mirrors PlanCache for the int8 datapath: plans bucket to
// the next power-of-two batch, each with its own slab. Single-goroutine.
type QuantPlanCache struct {
	net   *Network
	calib []float32
	arena *tensor.Arena
	plans map[int]*QuantPlan
}

// NewQuantPlanCache builds an empty cache; calib as in CompileQuantized.
func NewQuantPlanCache(net *Network, calib []float32, arena *tensor.Arena) *QuantPlanCache {
	if calib == nil {
		panic(errNoCalibration)
	}
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

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
// one is ReLU and at most one max-pool, the epilogue quantizes y straight
// onto the consumer's grid and writes the consumer's padded image; the
// fp32 activation never exists. That is exact, not approximate: the
// quantizer is monotone, so it commutes with max (the pool runs on bytes)
// and ReLU is a lower clamp at the byte 0 lands on. With any other layer
// in between, such as the global average pool in front of the HEP
// classifier, the step stores fp32 NCHW and the ordinary eval kernels run.
//
// Like Plan, a QuantPlan is single-goroutine for its caller, its Forward
// output is plan-owned (valid until the next call), and the warm path
// allocates nothing. Every sample's arithmetic is its own, so above
// inferTile the plan runs tiled like Plan (tile.go): the host keeps the
// packed weights, each lane its own images and scratch. Weights are
// captured at compile time: recompile after any LoadWeights.
type QuantPlan struct {
	net      *Network
	capacity int
	arena    *tensor.Arena
	steps    []qplanStep
	tiles    *tiler // non-nil above inferTile; steps hold the lanes' prototypes
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
	// next.xq, through the byte pool when a max-pool lies in between.
	next          *qkernel
	outInv, outLo float64 // 1/next.actScale, and the lower clamp
	pool          *MaxPool2D

	acc []int32 // one row of output pixels × 16 channels
	pre []uint8 // one sample's pre-pool output, channel-last at next.c4
}

// CalibrateActivations runs one fp32 forward pass over x and returns the
// max input magnitude seen at each layer (indexed like net.Layers;
// non-quantizable layers record 0). Merge several batches with
// MergeCalibration, then hand the result to CompileQuantized, which freezes
// the activation scales. Calibration is an offline pass and allocates freely:
// it runs the eval kernels over one state and per-layer destinations that
// are garbage on return, so nothing it needed stays reachable from net.
func CalibrateActivations(net *Network, x *tensor.Tensor) []float32 {
	stats := make([]float32, len(net.Layers))
	var st PlanState
	cur := x
	for i, l := range net.Layers {
		switch l.(type) {
		case *Conv2D, *Dense:
			stats[i] = quant.MaxAbs(cur.Data)
		}
		y := tensor.New(append([]int{cur.Shape[0]}, l.OutShape(cur.Shape[1:])...)...)
		l.ForwardInto(&st, y, cur, false)
		cur = y
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

const errNoCalibration = "nn: an int8 plan needs activation scales from CalibrateActivations"

// CompileQuantized builds an int8 inference plan for batches of up to
// capacity samples. calib must come from CalibrateActivations over this
// network; it fixes every layer's activation scale. arena == nil creates a
// private arena for the fp32 interlayer slabs.
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
	if capacity > inferTile {
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
	l := &QuantPlan{net: p.net, capacity: inferTile, arena: p.arena, steps: slices.Clone(p.steps)}
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
// zero-point, links, scratch and the fp32 slabs that survive linking.
func (p *QuantPlan) provision() {
	for i := range p.steps {
		if q := p.steps[i].q; q != nil {
			q.xq = make([]uint8, p.capacity*q.sampleStride)
			for j := range q.xq {
				q.xq[j] = 128
			}
		}
	}
	p.link()
	in := p.net.InShape
	for i := range p.steps {
		s := &p.steps[i]
		if s.layer != nil {
			s.layer.Reserve(&s.st, p.arena, p.capacity, in, false)
		}
		if q := s.q; q != nil {
			pix := q.ow
			if q.cols == 1 {
				pix = qRunPix
			}
			q.acc = make([]int32, pix*tensor.S8Lanes)
			if q.pool != nil {
				q.pre = make([]uint8, q.cols*q.next.c4)
			}
		}
		if s.layer != nil || (s.q != nil && s.q.next == nil) {
			s.ySlab = p.arena.Get(p.capacity * s.outPer)
			s.y = tensor.FromSlice(s.ySlab, append([]int{p.capacity}, s.outShape...)...)
		}
		in = s.outShape
	}
}

// link applies the one rule that decides where a kernel's output goes: if
// the layers up to the next kernel are ReLUs and at most one max-pool, the
// epilogue feeds it bytes and the layers in between drop out of the
// schedule.
func (p *QuantPlan) link() {
	for i := range p.steps {
		q := p.steps[i].q
		if q == nil {
			continue
		}
		lo, pool, j := 0.0, (*MaxPool2D)(nil), i+1
	scan:
		for ; j < len(p.steps); j++ {
			switch l := p.steps[j].layer.(type) {
			case *ReLU:
				lo = 128
			case *MaxPool2D:
				if pool != nil || q.cols == 1 {
					break scan
				}
				pool = l
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
		// Output rows go to the fp32 slab, to the consumer's padded image,
		// or — with a pool in between — to the pre-pool image.
		var yq []uint8
		yoff, yps, yrow := s*q.outC*q.cols, 1, q.ow
		switch {
		case q.pool != nil:
			yq, yoff, yps, yrow = q.pre, 0, q.next.c4, q.ow*q.next.c4
		case q.next != nil:
			yq, yoff, yps, yrow = q.next.image(s), 0, q.next.c4, q.next.rowStride
		}
		for oy := 0; oy < q.oh; oy++ {
			q.row(acc, s*q.sampleStride+oy*q.stride*q.rowStride, q.stride*q.c4, y, yq, yoff+oy*yrow, yps)
		}
		if q.pool != nil {
			q.poolInto(q.next.image(s), q.pre)
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

// quantize writes sample s of the fp32 NCHW batch x into its padded
// channel-last image: one strided pass per channel plane. Border and pad
// channels keep their zero-point bytes.
func (q *qkernel) quantize(s int, x []float32, inv float64) {
	plane := q.h * q.w
	src := x[s*q.inC*plane : (s+1)*q.inC*plane]
	dst := q.image(s)
	if plane == 1 {
		tensor.QuantizeU8(dst, src, 1, q.inC, 0, 1, inv)
		return
	}
	for c := 0; c < q.inC; c++ {
		tensor.QuantizeU8(dst[c:], src[c*plane:(c+1)*plane], q.h, q.w, q.rowStride, q.c4, inv)
	}
}

// poolInto max-pools one sample's channel-last bytes into the consumer's
// padded image. The window scan is MaxPool2D's: windows are clipped at the
// bottom and right edges; 2×2 windows at stride 2 over an even plane run
// the row-pair kernel.
func (q *qkernel) poolInto(dst, src []uint8) {
	c, k, st := q.next.c4, q.pool.K, q.pool.Stride
	oh, ow := q.next.h, q.next.w
	fast := k == 2 && st == 2 && q.oh%2 == 0 && q.ow%2 == 0
	for oy := 0; oy < oh; oy++ {
		d := dst[oy*q.next.rowStride : oy*q.next.rowStride+ow*c]
		if fast {
			r := src[2*oy*q.ow*c:]
			tensor.MaxPool2x2U8(d, r[:q.ow*c], r[q.ow*c:2*q.ow*c], c)
			continue
		}
		for ox := 0; ox < ow; ox++ {
			px := d[ox*c : (ox+1)*c]
			clear(px)
			for iy := oy * st; iy < min(oy*st+k, q.oh); iy++ {
				for ix := ox * st; ix < min(ox*st+k, q.ow); ix++ {
					for j, v := range src[(iy*q.ow+ix)*c : (iy*q.ow+ix+1)*c] {
						px[j] = max(px[j], v)
					}
				}
			}
		}
	}
}

// Capacity returns the largest batch the plan can run.
func (p *QuantPlan) Capacity() int { return p.capacity }

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

// Release returns the fp32 slabs to the arena; integer buffers are
// plan-private and simply dropped. The plan must not be used afterwards.
func (p *QuantPlan) Release() {
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

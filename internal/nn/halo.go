package nn

import "deep15pf/internal/tensor"

// haloConv is a Conv2D run without lowering, in every plan and under
// Conv2D's own ForwardInto. Its input is an image per sample: each channel
// plane stored with its zero padding around it and split into its stride²
// phase planes — phase (a, b) holds padded element (a + stride·i,
// b + stride·j) at row i, column j, rows pitch = ⌈(w+2·pad)/stride⌉ floats
// apart — the border the zeros of a fresh slab (the layout pins images),
// never written. At stride 1 there is one phase, the padded plane itself. Tap
// (c, ky, kx) of output (oy, ox) is then phase (ky mod s, kx mod s) at row
// oy + ⌊ky/s⌋, column ox + ⌊kx/s⌋, so computing the output at that pitch
// makes the row of B the lowering would build for the tap one run of the
// image at off = (c·s² + phase)·plane + ⌊ky/s⌋·pitch + ⌊kx/s⌋. The
// convolution is tensor.ConvTile — a GEMM tile reading B through that
// table — over C blocks of a few output rows, each stored by
// tensor.ConvStore with the bias, a folded ReLU and a folded 2×2/2
// max-pool applied while it is still in L1: straight into the next step's
// image when Plan.fuse links the two and that step has stride 1, as NCHW
// otherwise (a strided step splits its own input when it fills). A
// training step's store is tensor.ConvStoreArgmax, which also records
// each pool window's winner.
//
// Backward runs a group of samples at a time, one pass each way.
// tensor.ConvUnpool turns the gradient at what the store wrote into the
// gradient at the convolution's output, through the recorded winners and
// the ReLU's gate (the stored values themselves). The weight gradient
// reads the kept images through tensor.WeightGrad — B row j at compact
// output index p is the image at off[j] + (p/ow)·pitch + p%ow, the
// lowering's column p — and the input gradient is tensor.ConvAdjoint:
// per tap, the chain over the output channels added into the tap's window
// of a phase plane of the input gradient, written out as NCHW by one pass.
//
// Why the bits cannot move: lanes are output columns, so every output
// element is the lowered GEMM's chain — from +0, k ascending, zero weights
// skipped — over the same B values (a padded tap reads the border's +0,
// as the lowering writes it), and the columns computed past each row's
// end are never stored. The epilogue is the lowered path's bias rule, the
// ReLU kernel's select and the pool kernel's scan, element for element.
// The unpool writes what the pool's backward and then the ReLU's write.
// Each weight-gradient element is the lowered path's dot over the same
// values, added sample by sample in order — over the full output plane, so a
// dropped odd row or column still meets its +0 — and each input-gradient
// element the Wᵀ·dy chains col2im adds, in col2im's tap order.
type haloConv struct {
	conv        *Conv2D
	relu, pool  bool
	inC, h, w   int // input plane
	stride, pad int
	pitch       int       // one phase-plane row: ⌈(w+2·pad)/stride⌉
	plane       int       // one phase plane: ⌈(h+2·pad)/stride⌉·pitch
	img         int       // one sample's image: inC·stride²·plane
	oh, ow      int       // convolution output plane
	rows        int       // output rows computed: all oh, or the pool's 2·(oh/2)
	outH, outW  int       // the stored plane: the pool's, or the convolution's
	chunk       int       // output rows per C block, even under a pool
	idx         []int32   // compact columns: C block column j's offset in the image, or nil
	group       int       // compact columns: whole samples per C block, or 0 (chunks of rows)
	off         []int     // B row p = (c, ky, kx), see above
	images      []float32 // capacity images
	argmax      []int32   // training under a pool: capacity samples' winners
	dy          []float32 // training under a ReLU or pool: one sample's output gradient
	adjGroup    int       // samples an input-gradient call takes side by side
	dyG         []float32 // group > 1: the group's output gradients, channel-major
	dxG         []float32 // group > 1 or stride > 1: the group's input gradients in phase planes
	fed         bool      // the previous step's epilogue writes images
	next        *haloConv // where the epilogue writes; nil: the NCHW output
}

// haloBlock bounds a halo step's C block in floats: 8K floats (32 KiB)
// stay in L1 between the tile that writes them and the epilogue that reads
// them. 4K to 32K read the same on hep-small's batch-256 forward.
const haloBlock = 1 << 13

func newHaloConv(c *Conv2D, in []int) *haloConv {
	s := c.Stride
	hc := &haloConv{conv: c, inC: in[0], h: in[1], w: in[2], stride: s, pad: c.Pad}
	hc.pitch = (hc.w + 2*hc.pad + s - 1) / s
	hc.plane = (hc.h + 2*hc.pad + s - 1) / s * hc.pitch
	hc.img = hc.inC * s * s * hc.plane
	hc.oh = tensor.ConvOut(hc.h, c.KH, s, c.Pad)
	hc.ow = tensor.ConvOut(hc.w, c.KW, s, c.Pad)
	hc.rows = hc.oh
	hc.off = make([]int, 0, hc.inC*c.KH*c.KW)
	for ch := 0; ch < hc.inC; ch++ {
		for ky := 0; ky < c.KH; ky++ {
			for kx := 0; kx < c.KW; kx++ {
				phase := ch*s*s + ky%s*s + kx%s
				hc.off = append(hc.off, phase*hc.plane+ky/s*hc.pitch+kx/s)
			}
		}
	}
	hc.fold(nil)
	return hc
}

// fold folds p, the max-pool after the convolution (nil: none), into the
// store if its windows never reach past the plane — 2×2 at stride 2 over
// at least 2×2, which drops an odd last row and column — sizes the C
// blocks, and reports whether it folded p.
func (hc *haloConv) fold(p *MaxPool2D) bool {
	hc.rows = hc.oh
	hc.pool = p != nil && p.K == 2 && p.Stride == 2 && hc.rows >= 2 && hc.ow >= 2
	width := hc.pitch // C block floats per output row
	if hc.ow < compactBelow {
		width = hc.ow
	}
	hc.chunk = min(max(haloBlock/(hc.conv.OutC*width), 1), hc.rows)
	hc.outH, hc.outW = hc.rows, hc.ow
	if hc.pool {
		hc.rows &^= 1
		hc.chunk = min(max(hc.chunk&^1, 2), hc.rows)
		hc.outH, hc.outW = hc.rows/2, hc.ow/2
	}
	hc.idx, hc.group = nil, 0
	if width == hc.ow {
		hc.compact(max(min(haloBlock/hc.conv.OutC, compactCols)/(hc.rows*hc.ow), 1))
	}
	return hc.pool
}

// compactBelow is the output width under which a C block holds compact
// output columns (tensor.ConvTile with a column table), not pitch-strided
// ones, whose dead columns and short rows leave most of a tile idle.
// compactCols bounds its whole samples to 256 columns (eight packed blocks):
// more buy no speed and cost C block in every plan of a serving cache.
const (
	compactBelow = 16
	compactCols  = 256
)

// compact builds the column table of a compact C block: whole samples,
// up to group of them, when a sample's computed rows fit the block, and
// chunks of rows otherwise. Column j of a whole-sample block is sample
// j/cols's output index j%cols; of a chunk, the chunk's output index j.
func (hc *haloConv) compact(group int) {
	cols := hc.rows * hc.ow
	if hc.chunk < hc.rows {
		group, cols = 1, hc.chunk*hc.ow
	} else {
		hc.group = group
	}
	hc.idx = make([]int32, 0, group*cols)
	for i := 0; i < group; i++ {
		for p := 0; p < cols; p++ {
			hc.idx = append(hc.idx, int32(i*hc.img+p/hc.ow*hc.pitch+p%hc.ow))
		}
	}
}

// limit trims a compact block of whole samples to at most n of them, the
// most a plan of capacity n runs: a small serving bucket then holds a C
// block and column table its size, not haloBlock's.
func (hc *haloConv) limit(n int) {
	if hc.group > n {
		hc.compact(n)
	}
}

// blockLen is the C block the step needs, in floats.
func (hc *haloConv) blockLen() int {
	if hc.idx != nil {
		return hc.conv.OutC * len(hc.idx)
	}
	return hc.conv.OutC * hc.chunk * hc.pitch
}

// outPer is the stored output of one sample, in floats.
func (hc *haloConv) outPer() int { return hc.conv.OutC * hc.outH * hc.outW }

// phaseLen is one sample's input gradient in phase planes, in floats.
func (hc *haloConv) phaseLen() int {
	s := hc.stride
	return hc.inC * s * s * ((hc.h + s - 1) / s) * ((hc.w + s - 1) / s)
}

// adjointGroup is how many samples, of n, tensor.ConvAdjoint takes side by
// side for an output plane of cols positions: for a small plane that is
// the phase plane — at most half of tensor.AdjointRun — AdjointRun/cols
// of them. The adjoint then runs their windows as one run, which fills
// its vectors (a 4×4 plane alone fills a sixteenth of one) and reads each
// weight once per group, and the weight gradient keeps its C in registers
// across the group.
func adjointGroup(n, h, w, oh, ow, stride int) int {
	cols := oh * ow
	if oh == (h+stride-1)/stride && ow == (w+stride-1)/stride && cols <= tensor.AdjointRun/2 {
		return min(n, tensor.AdjointRun/cols)
	}
	return 1
}

// reserve lays out a training step's backward state for up to n samples
// in l, live at bwd, the step's backward on the plan's clock: one sample's
// gradient at the convolution's output, which the unpool writes and the
// two gradients read while it is in cache, and the gradients of a group of
// samples (adjointGroup) laid side by side, the input gradient's in phase
// planes. The pool's winners are the step's own.
func (hc *haloConv) reserve(l *layout, n, bwd int) {
	c := hc.conv
	if hc.pool {
		hc.argmax = make([]int32, n*hc.outPer())
	}
	if hc.pool || hc.relu {
		l.add(&hc.dy, c.OutC*hc.oh*hc.ow, bwd, bwd)
	}
	hc.adjGroup = adjointGroup(n, hc.h, hc.w, hc.oh, hc.ow, hc.stride)
	if hc.adjGroup > 1 {
		l.add(&hc.dyG, c.OutC*hc.adjGroup*hc.oh*hc.ow, bwd, bwd)
	}
	if hc.adjGroup > 1 || hc.stride > 1 {
		l.add(&hc.dxG, hc.adjGroup*hc.phaseLen(), bwd, bwd)
	}
}

// forward runs n samples: x is the NCHW input (unread when fed), y the
// NCHW output (nil when next is set), cb a C block of blockLen floats.
func (hc *haloConv) forward(y, x *tensor.Tensor, n int, cb []float32) {
	in := hc.inC * hc.h * hc.w
	step := max(hc.group, 1)
	for s0 := 0; s0 < n; s0 += step {
		m := min(step, n-s0)
		if !hc.fed {
			for s := s0; s < s0+m; s++ {
				hc.fill(hc.images[s*hc.img:][:hc.img], x.Data[s*in:][:in])
			}
		}
		hc.tile(y, s0, m, cb)
	}
}

// tile convolves the images of samples [s0, s0+m) — m > 1 only for a
// compact block of whole samples — and stores the result (see out).
func (hc *haloConv) tile(y *tensor.Tensor, s0, m int, cb []float32) {
	c := hc.conv
	src := hc.images[s0*hc.img:]
	if hc.group > 0 {
		cols := hc.rows * hc.ow
		ldc := m * cols
		tensor.ConvTile(c.OutC, ldc, c.Weight.W.Data, len(hc.off), src, hc.off, hc.idx, cb, ldc)
		for i := 0; i < m; i++ {
			hc.store(y, s0+i, 0, hc.rows, cb[i*cols:], ldc, hc.ow)
		}
		return
	}
	for y0 := 0; y0 < hc.rows; y0 += hc.chunk {
		rows := min(hc.chunk, hc.rows-y0)
		n, ldc, pitch := (rows-1)*hc.pitch+hc.ow, hc.chunk*hc.pitch, hc.pitch
		if hc.idx != nil { // compact: a chunk of rows
			n, ldc, pitch = rows*hc.ow, rows*hc.ow, hc.ow
		}
		tensor.ConvTile(c.OutC, n, c.Weight.W.Data, len(hc.off), src[y0*hc.pitch:], hc.off, hc.idx, cb, ldc)
		hc.store(y, s0, y0, rows, cb, ldc, pitch)
	}
}

// store runs the epilogue over output rows [y0, y0+rows) of sample s,
// held in src at srcPlane floats a channel and srcPitch a row.
func (hc *haloConv) store(y *tensor.Tensor, s, y0, rows int, src []float32, srcPlane, srcPitch int) {
	c := hc.conv
	dst, dstPlane, dstPitch := hc.out(y, s)
	if !hc.pool {
		tensor.ConvStore(dst[y0*dstPitch:], src, c.bias(), c.OutC, dstPlane, srcPlane, rows, dstPitch, srcPitch, hc.outW, hc.relu, false)
		return
	}
	at := y0 / 2 // the first stored row
	if hc.argmax == nil {
		tensor.ConvStore(dst[at*dstPitch:], src, c.bias(), c.OutC, dstPlane, srcPlane, rows/2, dstPitch, srcPitch, hc.outW, hc.relu, true)
		return
	}
	idx := hc.argmax[s*hc.outPer()+at*hc.outW:]
	tensor.ConvStoreArgmax(dst[at*dstPitch:], idx, src, c.bias(), c.OutC, dstPlane, hc.outH*hc.outW, srcPlane, rows/2, dstPitch, srcPitch, hc.outW, y0*hc.ow, hc.ow, hc.relu)
}

// out returns where sample s's stored output lives: the interior of the
// next step's image, or the NCHW output y, with its plane and row
// strides.
func (hc *haloConv) out(y *tensor.Tensor, s int) (dst []float32, plane, pitch int) {
	if nx := hc.next; nx != nil {
		return nx.images[s*nx.img+nx.pad*nx.pitch+nx.pad:], nx.plane, nx.pitch
	}
	return y.Data[s*hc.outPer():], hc.outH * hc.outW, hc.outW
}

// fill copies one NCHW sample into the interior of its image.
func (hc *haloConv) fill(dst, x []float32) {
	tensor.PhaseSplit(dst, x, hc.inC, hc.h, hc.w, hc.stride, hc.pad, hc.plane, hc.pitch)
}

// backward is BackwardInto for a training step over the n samples of the
// last forward: g is the gradient at what the store wrote, y the NCHW
// output of that forward (nil when it went into the next step's images).
// Per sample it unpools g and accumulates the bias gradient in sample
// order, as the lowered path does. The weight and input gradients are one
// tensor.WeightGrad and one tensor.ConvAdjoint per group of samples, whose
// gradients are copied side by side, channel-major; a group of one is
// already in that layout and is read in place, and at stride 1 written
// in place too. dx == nil skips the input gradient.
func (hc *haloConv) backward(dx, g, y *tensor.Tensor, n int) {
	c := hc.conv
	cols, k, per := hc.oh*hc.ow, len(hc.off), hc.outPer()
	in := hc.inC * hc.h * hc.w
	for s0 := 0; s0 < n; s0 += hc.adjGroup {
		m := min(hc.adjGroup, n-s0)
		dyG := hc.dyG
		for i := 0; i < m; i++ {
			s := s0 + i
			dy := g.Data[s*per:][:per]
			if hc.dy != nil {
				v, vPlane, vPitch := hc.out(y, s)
				var idx []int32
				if hc.pool {
					idx = hc.argmax[s*per:][:per]
				}
				tensor.ConvUnpool(hc.dy, dy, idx, v, c.OutC, hc.oh, hc.ow, vPlane, vPitch, hc.relu)
				dy = hc.dy
			}
			if !c.noBias {
				tensor.RowSums(c.Bias.Grad.Data, dy, c.OutC, cols)
			}
			if m == 1 {
				dyG = dy
				continue
			}
			for f := 0; f < c.OutC; f++ {
				copy(dyG[(f*m+i)*cols:][:cols], dy[f*cols:][:cols])
			}
		}
		dyG = dyG[:c.OutC*m*cols]
		tensor.WeightGrad(c.OutC, 0, cols, m, dyG, m*cols, cols, hc.images[s0*hc.img:][:m*hc.img], 0, hc.img, hc.off, hc.ow, hc.pitch, c.Weight.Grad.Data, k)
		if dx != nil {
			hc.adjoint(dx.Data[s0*in:][:m*in], c.Weight.W.Data, c.OutC, dyG, m, nil, false)
		}
	}
}

// adjoint writes to dst, m NCHW samples of the step's input shape,
// act(adjoint + bias) of the chains over outC channels of dyG: the input
// gradient of this convolution with weights wgt (outC rows of
// inC·kh·kw), or — with a Deconv2D's weights, and x as dyG — that
// deconvolution's forward. Without a bias, a ReLU or a stride, a single
// sample is accumulated in place.
func (hc *haloConv) adjoint(dst, wgt []float32, outC int, dyG []float32, m int, bias []float32, relu bool) {
	c := hc.conv
	dxg := dst
	if hc.stride > 1 || m > 1 || bias != nil || relu {
		dxg = hc.dxG[:m*hc.phaseLen()]
	}
	clear(dxg)
	tensor.ConvAdjoint(dxg, hc.inC, hc.h, hc.w, wgt, outC, c.KH, c.KW, hc.stride, hc.pad, dyG, m)
	if len(dxg) != len(dst) || &dxg[0] != &dst[0] {
		tensor.PhaseMerge(dst, dxg, hc.inC, hc.h, hc.w, hc.stride, m, bias, relu)
	}
}

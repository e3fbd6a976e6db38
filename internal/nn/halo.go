package nn

import "deep15pf/internal/tensor"

// haloConv is a stride-1 Conv2D run without lowering, in every plan. Its
// input is a halo image per sample: each channel plane stored with its zero
// padding around it, pitch = w+2·pad floats a row, the border written once
// (the arena's zeroed slab) and never again. Computing the output at that
// pitch makes the row of B the lowering would build for tap (c, ky, kx)
// one run of the image at off = c·plane + ky·pitch + kx, so the convolution
// is tensor.ConvTile — a GEMM tile reading B through that table — over C
// blocks of a few output rows, each stored by tensor.ConvStore with the
// bias, a folded ReLU and a folded 2×2/2 max-pool applied while it is still
// in L1: straight into the next halo step's image when Plan.fuse links the
// two, as NCHW otherwise. A training step's store is
// tensor.ConvStoreArgmax, which also records each pool window's winner.
//
// Backward runs one sample at a time, one pass each way. tensor.ConvUnpool
// turns the gradient at what the store wrote into the gradient at the
// convolution's output, through the recorded winners and the ReLU's gate
// (the stored values themselves), writing every element. The weight
// gradient reads the kept images through tensor.WeightGrad, whose B row
// for tap j at compact output index p is the image at off[j] +
// (p/ow)·pitch + p%ow — the lowering's column p — a group of samples a
// call, and the input gradient is
// tensor.ConvAdjoint, the forward's adjoint: per tap, the chain over the
// output channels added into the tap's window of the input gradient. No
// stride-1 convolution builds an im2col matrix, a Wᵀ·dy matrix or a
// full-resolution pool gradient.
//
// Why the bits cannot move: lanes are output columns, so every output
// element is the lowered GEMM's chain — from +0, k ascending, zero weights
// skipped — over the same B values (a padded tap reads the border's +0,
// as the lowering writes it), and the 2·pad columns computed past each
// row's end are never stored. The epilogue is fromChannelMajor's bias rule,
// the ReLU kernel's select and the pool kernel's scan, element for element.
// The unpool writes what the pool's backward and then the ReLU's write.
// Each weight-gradient element is the lowered path's dot over the same
// values, added sample by sample in order — over the full output plane, so a
// dropped odd row or column still meets its +0 — and each input-gradient
// element the Wᵀ·dy chains col2im adds, in col2im's tap order.
type haloConv struct {
	conv       *Conv2D
	relu, pool bool
	inC, h, w  int // input plane
	pad        int
	pitch      int       // w+2·pad: one halo row
	plane      int       // (h+2·pad)·pitch: one halo channel
	oh, ow     int       // convolution output plane
	rows       int       // output rows computed: all oh, or the pool's 2·(oh/2)
	outH, outW int       // the stored plane: the pool's, or the convolution's
	chunk      int       // output rows per C block, even under a pool
	off        []int     // B row p = (c, ky, kx) at c·plane + ky·pitch + kx
	images     []float32 // capacity halo images
	argmax     []int32   // training under a pool: capacity samples' winners
	dy         []float32 // training under a ReLU or pool: one sample's output gradient
	group      int       // samples an input-gradient call takes side by side
	dyG, dxG   []float32 // group > 1: the group's output and input gradients, channel-major
	fed        bool      // the previous step's epilogue writes images
	next       *haloConv // where the epilogue writes; nil: the NCHW output
}

// haloBlock bounds a halo step's C block in floats: 8K floats (32 KiB)
// stay in L1 between the tile that writes them and the epilogue that reads
// them. 4K to 32K read the same on hep-small's batch-256 forward.
const haloBlock = 1 << 13

func newHaloConv(c *Conv2D, in []int) *haloConv {
	hc := &haloConv{conv: c, inC: in[0], h: in[1], w: in[2], pad: c.Pad}
	hc.pitch = hc.w + 2*hc.pad
	hc.plane = (hc.h + 2*hc.pad) * hc.pitch
	hc.oh = tensor.ConvOut(hc.h, c.KH, 1, c.Pad)
	hc.ow = tensor.ConvOut(hc.w, c.KW, 1, c.Pad)
	hc.rows = hc.oh
	hc.off = make([]int, 0, hc.inC*c.KH*c.KW)
	for ch := 0; ch < hc.inC; ch++ {
		for ky := 0; ky < c.KH; ky++ {
			for kx := 0; kx < c.KW; kx++ {
				hc.off = append(hc.off, ch*hc.plane+ky*hc.pitch+kx)
			}
		}
	}
	return hc
}

// fold folds p, the max-pool after the convolution (nil: none), into the
// store if its windows never reach past the plane — 2×2 at stride 2 over
// at least 2×2, which drops an odd last row and column — sizes the C
// blocks, and reports whether it folded p.
func (hc *haloConv) fold(p *MaxPool2D) bool {
	hc.pool = p != nil && p.K == 2 && p.Stride == 2 && hc.rows >= 2 && hc.ow >= 2
	hc.chunk = min(max(haloBlock/(hc.conv.OutC*hc.pitch), 1), hc.rows)
	hc.outH, hc.outW = hc.rows, hc.ow
	if hc.pool {
		hc.rows &^= 1
		hc.chunk = min(max(hc.chunk&^1, 2), hc.rows)
		hc.outH, hc.outW = hc.rows/2, hc.ow/2
	}
	return hc.pool
}

// blockLen is the C block the step needs, in floats.
func (hc *haloConv) blockLen() int { return hc.conv.OutC * hc.chunk * hc.pitch }

// outPer is the stored output of one sample, in floats.
func (hc *haloConv) outPer() int { return hc.conv.OutC * hc.outH * hc.outW }

// reserve draws a training step's backward state for up to n samples: the
// winners, one sample's gradient at the convolution's output, which the
// unpool writes and the two gradients read while it is in cache, and for a
// small "same"-padded plane — at most half of tensor.AdjointRun — the
// gradients of a group of samples laid side by side, AdjointRun/plane of
// them: the adjoint runs their windows as one run, which fills its
// vectors (a 4×4 plane alone fills a sixteenth of one) and reads each
// weight once per group, and the weight gradient keeps its C in registers
// across the group.
func (hc *haloConv) reserve(a *tensor.Arena, n int) {
	c := hc.conv
	if hc.pool {
		hc.argmax = make([]int32, n*hc.outPer())
	}
	if hc.pool || hc.relu {
		hc.dy = a.Get(c.OutC * hc.oh * hc.ow)
	}
	cols := hc.oh * hc.ow
	hc.group = 1
	if hc.oh == hc.h && hc.ow == hc.w && cols <= tensor.AdjointRun/2 {
		hc.group = min(n, tensor.AdjointRun/cols)
	}
	if hc.group > 1 {
		hc.dyG = a.Get(c.OutC * hc.group * cols)
		hc.dxG = a.Get(hc.inC * hc.group * cols)
	}
}

// forward runs n samples: x is the NCHW input (unread when fed), y the
// NCHW output (nil when next is set), cb the plan's C block.
func (hc *haloConv) forward(y, x *tensor.Tensor, n int, cb []float32) {
	c := hc.conv
	img, in := hc.inC*hc.plane, hc.inC*hc.h*hc.w
	ldc := hc.chunk * hc.pitch
	for s := 0; s < n; s++ {
		src := hc.images[s*img : (s+1)*img]
		if !hc.fed {
			hc.fill(src, x.Data[s*in:(s+1)*in])
		}
		dst, dstPlane, dstPitch := hc.out(y, s)
		for y0 := 0; y0 < hc.rows; y0 += hc.chunk {
			rows := min(hc.chunk, hc.rows-y0)
			tensor.ConvTile(c.OutC, (rows-1)*hc.pitch+hc.ow, c.Weight.W.Data, len(hc.off), src[y0*hc.pitch:], hc.off, cb, ldc)
			if !hc.pool {
				tensor.ConvStore(dst[y0*dstPitch:], cb, c.bias(), c.OutC, dstPlane, ldc, rows, dstPitch, hc.pitch, hc.outW, hc.relu, false)
				continue
			}
			at := y0 / 2 // the first stored row
			if hc.argmax == nil {
				tensor.ConvStore(dst[at*dstPitch:], cb, c.bias(), c.OutC, dstPlane, ldc, rows/2, dstPitch, hc.pitch, hc.outW, hc.relu, true)
				continue
			}
			idx := hc.argmax[s*hc.outPer()+at*hc.outW:]
			tensor.ConvStoreArgmax(dst[at*dstPitch:], idx, cb, c.bias(), c.OutC, dstPlane, hc.outH*hc.outW, ldc, rows/2, dstPitch, hc.pitch, hc.outW, y0*hc.ow, hc.ow, hc.relu)
		}
	}
}

// out returns where sample s's stored output lives: the interior of the
// next step's halo image, or the NCHW output y, with its plane and row
// strides.
func (hc *haloConv) out(y *tensor.Tensor, s int) (dst []float32, plane, pitch int) {
	if nx := hc.next; nx != nil {
		return nx.images[s*nx.inC*nx.plane+nx.pad*nx.pitch+nx.pad:], nx.plane, nx.pitch
	}
	return y.Data[s*hc.outPer():], hc.outH * hc.outW, hc.outW
}

// fill copies one NCHW sample into the interior of its halo image.
func (hc *haloConv) fill(dst, x []float32) {
	if hc.pad == 0 {
		copy(dst, x)
		return
	}
	for ch := 0; ch < hc.inC; ch++ {
		for r := 0; r < hc.h; r++ {
			copy(dst[ch*hc.plane+(r+hc.pad)*hc.pitch+hc.pad:][:hc.w], x[(ch*hc.h+r)*hc.w:][:hc.w])
		}
	}
}

// backward is BackwardInto for a training halo step over the n samples of
// the last forward: g is the gradient at what the store wrote, y the NCHW
// output of that forward (nil when it went into the next step's images).
// Per sample it unpools g and accumulates the bias gradient in sample
// order, as the lowered path does. The weight and input gradients are one
// tensor.WeightGrad and one tensor.ConvAdjoint per group of samples, whose
// gradients are copied side by side, channel-major; a group of one is
// already in that layout and is read and written in place. dx == nil
// skips the input gradient.
func (hc *haloConv) backward(dx, g, y *tensor.Tensor, n int) {
	c := hc.conv
	cols, k, img, hw, per := hc.oh*hc.ow, len(hc.off), hc.inC*hc.plane, hc.h*hc.w, hc.outPer()
	in := hc.inC * hw
	for s0 := 0; s0 < n; s0 += hc.group {
		m := min(hc.group, n-s0)
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
		tensor.WeightGrad(c.OutC, 0, cols, m, dyG, m*cols, cols, hc.images[s0*img:][:m*img], 0, img, hc.off, hc.ow, hc.pitch, c.Weight.Grad.Data, k)
		if dx == nil {
			continue
		}
		dxg := dx.Data[s0*in:][:in]
		if m > 1 {
			dxg = hc.dxG[:hc.inC*m*hw]
		}
		clear(dxg)
		tensor.ConvAdjoint(dxg, hc.inC, hc.h, hc.w, c.Weight.W.Data, c.OutC, c.KH, c.KW, c.Pad, dyG, m)
		if m == 1 {
			continue
		}
		for i := 0; i < m; i++ {
			for ch := 0; ch < hc.inC; ch++ {
				copy(dx.Data[(s0+i)*in+ch*hw:][:hw], dxg[(ch*m+i)*hw:][:hw])
			}
		}
	}
}

package nn

import "deep15pf/internal/tensor"

// haloConv is a stride-1 Conv2D of an inference plan run without lowering,
// with the ReLU and the 2×2/2 max-pool that follow it folded into its
// store (Plan.fuse decides which). Its input is a halo image per sample:
// each channel plane stored with its zero padding around it, pitch =
// w+2·pad floats a row, the border written once (the arena's zeroed slab)
// and never again. Computing the output at that pitch makes the row of B
// the lowering would build for tap (c, ky, kx) one run of the image at
// off = c·plane + ky·pitch + kx, so the convolution is tensor.ConvTile — a
// GEMM tile reading B through that table — over C blocks of a few output
// rows, each stored by tensor.ConvStore with the bias, ReLU and pool
// applied while it is still in L1: straight into the next halo step's
// image when that is the consumer, as NCHW otherwise.
//
// Why the bits cannot move: lanes are output columns, so every output
// element is the lowered GEMM's chain — from +0, k ascending, zero weights
// skipped — over the same B values (a padded tap reads the border's +0,
// as the lowering writes it), and the 2·pad columns computed past each
// row's end are never stored. The epilogue is fromChannelMajor's bias rule,
// the ReLU kernel's select and the pool kernel's scan, element for element.
type haloConv struct {
	conv       *Conv2D
	relu, pool bool
	inC, h, w  int // input plane
	pad        int
	pitch      int       // w+2·pad: one halo row
	plane      int       // (h+2·pad)·pitch: one halo channel
	ow         int       // convolution output width
	rows       int       // output rows computed: all oh, or the pool's 2·(oh/2)
	outH, outW int       // the stored plane: the pool's, or the convolution's
	chunk      int       // output rows per C block, even under a pool
	off        []int     // B row p = (c, ky, kx) at c·plane + ky·pitch + kx
	images     []float32 // capacity halo images
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
	hc.rows = tensor.ConvOut(hc.h, c.KH, 1, c.Pad)
	hc.ow = tensor.ConvOut(hc.w, c.KW, 1, c.Pad)
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
		dst, dstPlane, dstPitch := []float32(nil), hc.outH*hc.outW, hc.outW
		if nx := hc.next; nx != nil {
			dst = nx.images[s*nx.inC*nx.plane+nx.pad*nx.pitch+nx.pad:]
			dstPlane, dstPitch = nx.plane, nx.pitch
		} else {
			dst = y.Data[s*c.OutC*dstPlane:]
		}
		for y0 := 0; y0 < hc.rows; y0 += hc.chunk {
			rows := min(hc.chunk, hc.rows-y0)
			tensor.ConvTile(c.OutC, (rows-1)*hc.pitch+hc.ow, c.Weight.W.Data, len(hc.off), src[y0*hc.pitch:], hc.off, cb, ldc)
			out, at := rows, y0 // stored rows, and the first one's index
			if hc.pool {
				out, at = rows/2, y0/2
			}
			tensor.ConvStore(dst[at*dstPitch:], cb, c.bias(), c.OutC, dstPlane, ldc, out, dstPitch, hc.pitch, hc.outW, hc.relu, hc.pool)
		}
	}
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

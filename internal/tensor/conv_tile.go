package tensor

import "sync"

// The direct convolution's kernels: a GEMM register tile whose B rows are
// read through an offset table, the epilogue that stores its C block with
// the bias, ReLU and 2×2 max-pool folded in (in training, recording each
// pool window's winner), and three for backward — the unpool through
// those winners and the ReLU, the weight gradient's dot tile, which reads
// the same image back, and the input gradient's adjoint tile, the GEMM
// tile again, adding into the tap's window. nn runs every convolution and
// deconvolution through them without lowering, either way.
//
// The input is a "halo" image: each channel plane stored with its zero
// padding written around it, rows pitch = w+2·pad floats apart — split,
// for a stride-s convolution, into its s² phase planes (PhaseSplit), so
// that the taps of a strided output are again runs. An output computed at
// pitch-strided column j = oy·pitch + ox then reads tap (c, ky, kx) at
// c·plane + ky·pitch + kx + j (at stride 1): for every tap, the row of B
// the lowering would have built is one contiguous run of the image at a
// fixed offset, and the off table names it. The 2·pad columns per output
// row past ow are computed and never stored — or, with a column table
// (compact columns), not computed at all.

// ConvOut returns the output spatial size for input size in, kernel k,
// stride s and symmetric padding p.
func ConvOut(in, k, s, p int) int {
	return (in+2*p-k)/s + 1
}

// tapRange returns the output positions [lo,hi) along one axis whose input
// position o*stride-pad+k lies inside [0,in), for kernel offset k; hi <= lo
// when there are none. Beyond stride 1 the bounds are walked in rather than
// divided out — the clipped positions are within a kernel's width of either
// end, and one integer division costs more than gathering a 4-float row.
func tapRange(pad, k, in, out, stride int) (lo, hi int) {
	if stride == 1 {
		return max(pad-k, 0), min(in+pad-k, out)
	}
	for lo*stride-pad+k < 0 {
		lo++
	}
	hi = out
	for hi > lo && (hi-1)*stride-pad+k >= in {
		hi--
	}
	return lo, hi
}

// convTile is the active direct-convolution tile. For one panel of
// mr ≤ gemmMR rows it computes, for every r < mr and j < n,
//
//	c[r*ldc+j] = +0, then c = round(c + round(a[r*lda+p] * b[off[p]+j]))
//
// over p = 0..k-1 ascending, skipping every step whose A element is ±0.
// That is gemmTile's chain for a C cleared first (Gemm with beta = 0) and
// B row p at b[off[p]:]; the vector bodies are gemmTile's with the B row
// address loaded from the table and the accumulators zeroed instead of
// loaded.
var convTile = convTileGeneric

func convTileGeneric(mr, n, k int, a []float32, lda int, b []float32, off []int, c []float32, ldc int) {
	for r := 0; r < mr; r++ {
		crow := c[r*ldc : r*ldc+n]
		clear(crow)
		for p := 0; p < k; p++ {
			av := a[r*lda+p]
			if av == 0 {
				continue
			}
			axpyGeneric(av, b[off[p]:off[p]+n], crow)
		}
	}
}

// convPack is the active packing kernel of a compact C block: for tap
// p < len(off) and lane l < w it writes
//
//	dst[p*packCols + l] = b[off[p] + idx[l]]
//
// and +0 to the lanes from w to packCols — B rows whose columns are any
// output elements (the compact output indices of a small plane across its
// rows and across a group of samples, with no column computed past a
// row's end), laid out for convTile. The vector bodies gather each row,
// one load per lane.
var convPack = convPackGeneric

// packCols is the width of one packed block of B: one convTile block.
const packCols = 32

func convPackGeneric(dst, b []float32, off []int, idx []int32, w int) {
	for p, o := range off {
		d := dst[p*packCols:][:packCols]
		for l, j := range idx[:w] {
			d[l] = b[o+int(j)]
		}
		clear(d[w:])
	}
}

// packOffsets returns the offset table of k packed rows, p·packCols for
// row p, which convTile reads a packed block through. The table only
// grows, and an entry never changes, so a slice handed out stays valid.
func packOffsets(k int) []int {
	packOffMu.Lock()
	defer packOffMu.Unlock()
	for p := len(packOff); p < k; p++ {
		packOff = append(packOff, p*packCols)
	}
	return packOff[:k]
}

var (
	packOffMu sync.Mutex
	packOff   []int
)

// ConvTile overwrites c (m rows, ldc apart) with a·B, where a is m×k (rows
// lda apart), k = len(off) and row p of B is b[off[p]:off[p]+n] — or, with
// a table idx of n column offsets, b[off[p]+idx[j]] for column j, packed
// a block of columns at a time (convPack): one C block of a direct
// convolution, each element the k-ascending chain of single-rounded
// multiply-adds Gemm(false, false, …, 0, c) gives it.
func ConvTile(m, n int, a []float32, lda int, b []float32, off []int, idx []int32, c []float32, ldc int) {
	k := len(off)
	if m <= 0 || n <= 0 {
		return
	}
	if lda < k || ldc < n || len(a) < (m-1)*lda+k || len(c) < (m-1)*ldc+n || (idx != nil && len(idx) < n) {
		panic("tensor: ConvTile operand too small")
	}
	reach := n - 1 // the furthest column offset
	if idx != nil {
		reach = 0
		for _, o := range idx[:n] {
			if o < 0 {
				panic("tensor: ConvTile offset outside the image")
			}
			reach = max(reach, int(o))
		}
	}
	for _, o := range off {
		if o < 0 || o > len(b)-1-reach || o > 1<<31-1-reach {
			panic("tensor: ConvTile offset outside the image")
		}
	}
	parts := (m + gemmMR - 1) / gemmMR // row panels, or packed column blocks
	if idx != nil {
		parts = (n + packCols - 1) / packCols
	}
	if gemmSerial(m, n, k) {
		convTileParts(0, parts, m, n, a, lda, b, off, idx, c, ldc)
		return
	}
	ParallelFor(parts, func(lo, hi int) { convTileParts(lo, hi, m, n, a, lda, b, off, idx, c, ldc) })
}

// convTileParts runs parts [lo, hi) of a ConvTile: row panels when the
// columns are contiguous; with a column table, blocks of packCols
// columns, each gathered once (convPack) and then run through every row
// panel. A product of gemmParallelMin multiply-adds splits its parts
// across the workers, as the GEMM splits its rows; each element is one
// worker's whole chain, so the split cannot change a bit.
func convTileParts(lo, hi, m, n int, a []float32, lda int, b []float32, off []int, idx []int32, c []float32, ldc int) {
	k := len(off)
	if idx == nil {
		for i := lo * gemmMR; i < min(hi*gemmMR, m); i += gemmMR {
			convTile(min(gemmMR, m-i), n, k, a[i*lda:], lda, b, off, c[i*ldc:], ldc)
		}
		return
	}
	pb, poff := getPack(k*packCols), packOffsets(k)
	for j0 := lo * packCols; j0 < min(hi*packCols, n); j0 += packCols {
		w := min(packCols, n-j0)
		convPack(pb, b, off, idx[j0:j0+w], w)
		for i := 0; i < m; i += gemmMR {
			convTile(min(gemmMR, m-i), w, k, a[i*lda:], lda, pb, poff, c[i*ldc+j0:], ldc)
		}
	}
	putPack(pb)
}

// convStore is the active direct-convolution epilogue. For plane
// p < planes, with
//
//	v(y, x) = act(src[p*srcPlane + y*srcPitch + x] + bias[p])
//
// — no add where bias is nil or bias[p] is ±0 (the lowered path's rule: a
// zero bias is a copy, so a −0 survives), act the ReLU kernel's select
// (x > 0 ? x : +0, NaN and −0 to +0) when relu is set and nothing
// otherwise — it writes, for r < rows and i < n,
//
//	dst[p*dstPlane + r*dstPitch + i] = v(r, i)
//
// or, when pool is set, the 2×2/2 max-pool of v: the maximum of
// v(2r, 2i), v(2r, 2i+1), v(2r+1, 2i), v(2r+1, 2i+1) scanned in that
// order from −Inf with a strict >, maxPool2x2's rule. Each output is the
// separate bias add, ReLU and pool passes' value, computed while the C
// block is still in L1.
var convStore = convStoreGeneric

func convStoreGeneric(dst, src, bias []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n int, relu, pool bool) {
	for p := 0; p < planes; p++ {
		var b float32
		if bias != nil {
			b = bias[p]
		}
		s, d := src[p*srcPlane:], dst[p*dstPlane:]
		for r := 0; r < rows; r++ {
			dr := d[r*dstPitch:][:n]
			if !pool {
				for i, x := range s[r*srcPitch:][:n] {
					dr[i] = convEpilogue(x, b, relu)
				}
				continue
			}
			r0, r1 := s[2*r*srcPitch:][:2*n], s[(2*r+1)*srcPitch:][:2*n]
			for i := range dr {
				best := negInf
				if v := convEpilogue(r0[2*i], b, relu); v > best {
					best = v
				}
				if v := convEpilogue(r0[2*i+1], b, relu); v > best {
					best = v
				}
				if v := convEpilogue(r1[2*i], b, relu); v > best {
					best = v
				}
				if v := convEpilogue(r1[2*i+1], b, relu); v > best {
					best = v
				}
				dr[i] = best
			}
		}
	}
}

// convEpilogue is one C element's bias add and optional ReLU.
func convEpilogue(x, b float32, relu bool) float32 {
	if b != 0 {
		x += b
	}
	if relu && !(x > 0) {
		x = 0
	}
	return x
}

// ConvStore runs the epilogue over planes × rows × n outputs; see
// convStore. Under pool, src holds 2·rows rows of 2·n floats per plane.
func ConvStore(dst, src, bias []float32, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n int, relu, pool bool) {
	if planes <= 0 || rows <= 0 || n <= 0 {
		return
	}
	srcRows, srcN := rows, n
	if pool {
		srcRows, srcN = 2*rows, 2*n
	}
	if (bias != nil && len(bias) < planes) || dstPitch < n || srcPitch < srcN || dstPlane < 0 || srcPlane < 0 ||
		len(dst) < (planes-1)*dstPlane+(rows-1)*dstPitch+n ||
		len(src) < (planes-1)*srcPlane+(srcRows-1)*srcPitch+srcN {
		panic("tensor: ConvStore operand too small")
	}
	convStore(dst, src, bias, planes, dstPlane, srcPlane, rows, dstPitch, srcPitch, n, relu, pool)
}

// convDot is the active direct-convolution weight-gradient tile for long
// reductions (WeightGrad's row-wise layout): to dotTile what convTile is
// to gemmTile. B is not stored: tap j = (c, ky, kx) reads
// its output-indexed row straight out of the halo image,
//
//	B_j[p] = b[off[j] + (p/ow)*pitch + p%ow]
//
// for compact output index p (the lowering's column; pitch ≥ ow). For one
// panel of mr ≤ dotMR rows it computes, for every r < mr and j < n,
//
//	c[r*ldc+j] += dot(a[r*lda:r*lda+k], B_j[0:k])
//
// where dot has exactly sdotGeneric's structure, so each element is
// dotTile's over the lowering with alpha = 1. The vector bodies fill a
// B vector's lanes with one masked load per image row it spans — a block
// of sixteen compact indices reaches across rows whenever ow is not a
// multiple of sixteen — and otherwise run dotTile's blocks and reduction.
var convDot = convDotGeneric

// convDotGeneric gathers each B row into a packing buffer and takes
// sdotGeneric against it: the definition written out.
func convDotGeneric(mr, n, k int, a []float32, lda int, b []float32, off []int, ow, pitch int, c []float32, ldc int) {
	row := getPack(k)
	for j := 0; j < n; j++ {
		for p := range row {
			row[p] = b[off[j]+p/ow*pitch+p%ow]
		}
		for r := 0; r < mr; r++ {
			c[r*ldc+j] += sdotGeneric(a[r*lda:r*lda+k], row)
		}
	}
	putPack(row)
}

// convStoreArgmax is convStore under pool that also records each window's
// winner, as maxPool2x2Argmax does: for pooled output (r, i) of plane p it
// writes the value convStore writes and, at idx[p*idxPlane + r*n + i], the
// offset in the convolution's output plane (w floats a row, row 0 of the
// block at offset base) of the first tap that beat the running best —
// base + 2r·w + {2i, 2i+1, w+2i, w+2i+1} in scan order, or 0 when nothing
// beat −Inf (all NaN or −Inf, which a folded ReLU rules out).
var convStoreArgmax = convStoreArgmaxGeneric

func convStoreArgmaxGeneric(dst []float32, idx []int32, src, bias []float32, planes, dstPlane, idxPlane, srcPlane, rows, dstPitch, srcPitch, n, base, w int, relu bool) {
	for p := 0; p < planes; p++ {
		var b float32
		if bias != nil {
			b = bias[p]
		}
		s, d, ix := src[p*srcPlane:], dst[p*dstPlane:], idx[p*idxPlane:]
		for r := 0; r < rows; r++ {
			dr, ir := d[r*dstPitch:][:n], ix[r*n:][:n]
			r0, r1 := s[2*r*srcPitch:][:2*n], s[(2*r+1)*srcPitch:][:2*n]
			o := int32(base + 2*r*w)
			for i := range dr {
				best, at := negInf, int32(0)
				j := int32(2 * i)
				if v := convEpilogue(r0[j], b, relu); v > best {
					best, at = v, o+j
				}
				if v := convEpilogue(r0[j+1], b, relu); v > best {
					best, at = v, o+j+1
				}
				if v := convEpilogue(r1[j], b, relu); v > best {
					best, at = v, o+int32(w)+j
				}
				if v := convEpilogue(r1[j+1], b, relu); v > best {
					best, at = v, o+int32(w)+j+1
				}
				dr[i], ir[i] = best, at
			}
		}
	}
}

// ConvStoreArgmax is ConvStore with the pool folded (src holds 2·rows rows
// of 2·n floats per plane) that also writes each window's winner to idx,
// rows of n apart and planes idxPlane apart; see convStoreArgmax. base is
// the offset of the block's first source row in the convolution's output
// plane, w that plane's width.
func ConvStoreArgmax(dst []float32, idx []int32, src, bias []float32, planes, dstPlane, idxPlane, srcPlane, rows, dstPitch, srcPitch, n, base, w int, relu bool) {
	if planes <= 0 || rows <= 0 || n <= 0 {
		return
	}
	if (bias != nil && len(bias) < planes) || dstPitch < n || srcPitch < 2*n || dstPlane < 0 || srcPlane < 0 ||
		idxPlane < 0 || w < 2*n || base < 0 || base+2*rows*w > 1<<31-1 ||
		len(dst) < (planes-1)*dstPlane+(rows-1)*dstPitch+n ||
		len(idx) < (planes-1)*idxPlane+rows*n ||
		len(src) < (planes-1)*srcPlane+(2*rows-1)*srcPitch+2*n {
		panic("tensor: ConvStoreArgmax operand too small")
	}
	convStoreArgmax(dst, idx, src, bias, planes, dstPlane, idxPlane, srcPlane, rows, dstPitch, srcPitch, n, base, w, relu)
}

// unpool is the active unpool kernel, the backward of convStoreArgmax. For
// plane p < planes and pooled output (r, i), r < rows, i < n, with
//
//	g  = g[p*gPlane + r*n + i], at = idx[p*gPlane + r*n + i],
//	v  = v[p*vPlane + r*vPitch + i],
//	gv = +0 + g, or under relu (v > 0 ? +0 + g : +0)
//
// it writes the window's four outputs dy[p*dyPlane + o] for
// o = (2r+e)·w + 2i + d, e, d ∈ {0, 1}: gv where o == at, +0 elsewhere.
// Every other element of dy is left alone.
var unpool = unpoolGeneric

func unpoolGeneric(dy, g []float32, idx []int32, v []float32, planes, dyPlane, gPlane, vPlane, rows, vPitch, n, w int, relu bool) {
	for p := 0; p < planes; p++ {
		d, gp, ip, vp := dy[p*dyPlane:], g[p*gPlane:], idx[p*gPlane:], v[p*vPlane:]
		for r := 0; r < rows; r++ {
			d0, d1 := d[2*r*w:][:2*n], d[(2*r+1)*w:][:2*n]
			gr, ir, vr := gp[r*n:][:n], ip[r*n:][:n], vp[r*vPitch:][:n]
			o := int32(2 * r * w)
			for i, gi := range gr {
				var gv float32
				if !relu || vr[i] > 0 {
					gv += gi
				}
				j := int32(2 * i)
				d0[j], d0[j+1], d1[j], d1[j+1] = 0, 0, 0, 0
				switch ir[i] - o {
				case j:
					d0[j] = gv
				case j + 1:
					d0[j+1] = gv
				case int32(w) + j:
					d1[j] = gv
				case int32(w) + j + 1:
					d1[j+1] = gv
				}
			}
		}
	}
}

// ConvUnpool writes dy, planes of h×w, the gradient at the output of a
// convolution whose store folded a ReLU (relu), a 2×2/2 max-pool (idx not
// nil) or both, from g, the gradient at what the store wrote. v is what
// it wrote — plane p's row r at v[p*vPlane + r*vPitch] — and idx the
// winners ConvStoreArgmax recorded, compact like g.
//
// Without a pool it is ReLUGrad: g[i] where v[i] > 0, +0 elsewhere (g is
// then planes of h×w). With one it is the pool's backward — clear, then
// add each g at its window's winner — followed by that ReLUGrad on the
// ReLU's output, in one pass that writes every element: the winner gets
// +0 + g (under relu only where v > 0, the winner being the ReLU's output
// v), every other element +0, a dropped odd last row and column included.
// A window nothing won recorded offset 0, and without a ReLU its g is then
// added to the plane's first element, in window order, as the pool's
// backward does; under a ReLU every window has a winner, since the ReLU's
// outputs are never NaN and +0 beats −Inf.
func ConvUnpool(dy, g []float32, idx []int32, v []float32, planes, h, w, vPlane, vPitch int, relu bool) {
	if planes <= 0 {
		return
	}
	oh, ow := h, w
	if idx != nil {
		oh, ow = h/2, w/2
	}
	if !relu && idx == nil {
		panic("tensor: ConvUnpool with nothing folded")
	}
	if oh < 1 || ow < 1 || vPitch < ow || vPlane < 0 || len(dy) < planes*h*w || len(g) < planes*oh*ow ||
		(idx != nil && len(idx) < planes*oh*ow) || len(v) < (planes-1)*vPlane+(oh-1)*vPitch+ow {
		panic("tensor: ConvUnpool operand too small")
	}
	if idx == nil {
		if vPitch == w && vPlane == h*w { // v is compact too: one pass
			reluGrad(dy[:planes*h*w], v[:planes*h*w], g[:planes*h*w])
			return
		}
		for p := 0; p < planes; p++ {
			for r := 0; r < h; r++ {
				reluGrad(dy[(p*h+r)*w:][:w], v[p*vPlane+r*vPitch:][:w], g[(p*h+r)*w:][:w])
			}
		}
		return
	}
	unpool(dy, g, idx, v, planes, h*w, oh*ow, vPlane, oh, vPitch, ow, w, relu)
	for p := 0; p < planes; p++ {
		d := dy[p*h*w:][:h*w]
		if w%2 != 0 {
			for r := 0; r < 2*oh; r++ {
				d[r*w+w-1] = 0
			}
		}
		if h%2 != 0 {
			clear(d[(h-1)*w:])
		}
		if relu {
			continue
		}
		for j, at := range idx[p*oh*ow+1:][:oh*ow-1] {
			if at == 0 {
				d[0] += g[p*oh*ow+1+j]
			}
		}
	}
}

// convAdj is the active adjoint tile: the input gradient of a stride-1
// convolution for one tap and a panel of mr ≤ gemmMR input channels, over
// a run of span lanes. For r < mr and every lane j < span whose bit
// (j%32 of keep[j/32]) is set it computes
//
//	acc = +0, then acc = round(acc + round(a[r*ars+p*aps] * b[p*ldb+j]))
//
// over p = 0..k-1 ascending, skipping every step whose A element is ±0 —
// gemmTile's chain for a C cleared first — and adds it to c[r*ldc+j];
// nothing else of c is touched. With A the tap's column of the weights
// read as Wᵀ and B the output gradient's channel rows, acc is the element
// of the lowered path's Wᵀ·dy that col2im adds at that place, so c takes
// the same add. The run is a tap's window laid flat — rows, and samples,
// at fixed strides on both sides — and keep marks the lanes inside it:
// bodies compute the chains of the lanes between and drop them. t is
// gemmMR·AdjointRun floats of scratch; span is at most AdjointRun.
var convAdj = convAdjGeneric

// convAdjGeneric runs each chain as gemmTileGeneric runs a row of C, and
// adds the kept lanes as a scalar `+=` does, so that where two
// NaNs meet the payload is theirs too.
func convAdjGeneric(mr, k int, a []float32, ars, aps int, b []float32, ldb, span int, c []float32, ldc int, keep []uint32, t []float32) {
	row := t[:span]
	for r := 0; r < mr; r++ {
		clear(row)
		for p := 0; p < k; p++ {
			if av := a[r*ars+p*aps]; av != 0 {
				axpyGeneric(av, b[p*ldb:p*ldb+span], row)
			}
		}
		addKept(c[r*ldc:], row, keep)
	}
}

// addKept adds v[j] to d[j] for the lanes keep marks.
func addKept(d, v []float32, keep []uint32) {
	for j, x := range v {
		if keep[j>>5]&(1<<(j&31)) != 0 {
			d[j] += x
		}
	}
}

// AdjointRun bounds the run of one adjoint call, in lanes: a tap's window
// takes as many of its rows, or of its samples' planes, as fit. A caller
// that lays a small plane's samples side by side (ConvAdjoint's m) lets
// one run cover AdjointRun/plane of them.
const AdjointRun = 256

// adjMasks bounds the window masks one ConvAdjoint call keeps: a 3×3
// "same" kernel's taps have four window shapes, each in a whole group
// and in the last partial one.
const adjMasks = 8

// adjScratch is one ConvAdjoint call's scratch: the tile's block and the
// windows' lane masks, each built once per call. They recycle through a
// free list, as the GEMM's packing buffers do, so a warm call allocates
// nothing.
type adjScratch struct {
	t     [gemmMR * AdjointRun]float32
	keep  [adjMasks][AdjointRun / 32]uint32
	shape [adjMasks][4]int // groups, rows, n, pitch of each mask
	masks int              // masks built in this call
}

// mask returns the lane mask of a window shape (see laneMask), building it
// on the shape's first use in the call; past adjMasks shapes the oldest
// slot is rebuilt.
func (sc *adjScratch) mask(groups, rows, n, pitch, period int) []uint32 {
	key := [4]int{groups, rows, n, pitch}
	live := min(sc.masks, adjMasks)
	for i := 0; i < live; i++ {
		if sc.shape[i] == key {
			return sc.keep[i][:]
		}
	}
	i := sc.masks % adjMasks
	sc.masks++
	sc.shape[i] = key
	laneMask(sc.keep[i][:], groups, rows, n, pitch, period)
	return sc.keep[i][:]
}

var (
	adjMu   sync.Mutex
	adjFree []*adjScratch
)

func getAdj() *adjScratch {
	adjMu.Lock()
	defer adjMu.Unlock()
	if n := len(adjFree); n > 0 {
		s := adjFree[n-1]
		adjFree = adjFree[:n-1]
		return s
	}
	return new(adjScratch)
}

func putAdj(s *adjScratch) {
	adjMu.Lock()
	if len(adjFree) < 64 {
		adjFree = append(adjFree, s)
	}
	adjMu.Unlock()
}

// laneMask sets keep to the lanes of a run holding groups blocks, period
// lanes apart, of rows rows of n lanes, pitch apart: bit j%32 of word j/32
// for j = g·period + y·pitch + i.
func laneMask(keep []uint32, groups, rows, n, pitch, period int) {
	clear(keep)
	for g := 0; g < groups; g++ {
		for y := 0; y < rows; y++ {
			end := g*period + y*pitch + n
			for j := end - n; j < end; {
				bit := j & 31
				run := min(32-bit, end-j)
				keep[j>>5] |= uint32(1<<run-1) << bit
				j += run
			}
		}
	}
}

// ConvAdjoint adds to dx the data gradient of a kh×kw convolution with
// the given stride and padding whose weights are wgt (outC rows of
// c·kh·kw) and whose output gradient is dy, for m samples laid side by
// side in each channel: dy is outC channels of m oh×ow planes (one sample
// is plain NCHW), and dx holds the h×w input gradient split into its
// stride² phase planes — element (Y, X) of sample i, channel ch lives in
// phase (Y mod stride)·stride + X mod stride at
//
//	dx[((ch·stride² + phase)·m + i)·ph·pw + (Y/stride)·pw + X/stride]
//
// with ph×pw = ⌈h/stride⌉×⌈w/stride⌉; at stride 1 that is c channels of m
// h×w planes. It is Gemm(true, false, …, 0, col) followed by col2im for
// each sample, bit for bit, with no matrix in between: each tap, in
// col2im's (ky, kx) order, runs its chains over the output channels and
// adds them into its clipped window of dx — one phase plane, at the fixed
// shift col2im adds that tap's row of the matrix at. When the output
// plane is the phase plane (stride-1 "same" padding, or a stride-s
// convolution whose output is ⌈h/s⌉×⌈w/s⌉) a window's rows, and its
// samples' windows after them, are one run at that shift on both sides,
// and a call takes as much of it as fits AdjointRun; otherwise a call
// takes one row. A tap that falls in the padding is skipped, never read
// as a +0 border: an infinite or NaN weight there would turn the +0 into
// NaN.
func ConvAdjoint(dx []float32, c, h, w int, wgt []float32, outC, kh, kw, stride, pad int, dy []float32, m int) {
	if c < 1 || h < 1 || w < 1 || kh < 1 || kw < 1 || stride < 1 || pad < 0 || kh > h+2*pad || kw > w+2*pad || outC < 0 || m < 1 {
		panic("tensor: ConvAdjoint geometry invalid")
	}
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	ph, pw := (h+stride-1)/stride, (w+stride-1)/stride
	k, cols, phw, ss := c*kh*kw, oh*ow, ph*pw, stride*stride
	if len(dx) < c*ss*m*phw || len(wgt) < outC*k || len(dy) < outC*m*cols {
		panic("tensor: ConvAdjoint operand too small")
	}
	if outC == 0 {
		return
	}
	panels := (c + gemmMR - 1) / gemmMR
	if gemmSerial(k, m*cols, outC) {
		adjointPanels(0, panels, dx, c, h, w, wgt, outC, kh, kw, stride, pad, dy, m)
		return
	}
	ParallelFor(panels, func(lo, hi int) {
		adjointPanels(lo, hi, dx, c, h, w, wgt, outC, kh, kw, stride, pad, dy, m)
	})
}

// adjointPanels is ConvAdjoint for the input channels of panels [lo, hi),
// gemmMR channels a panel. A product of gemmParallelMin multiply-adds —
// the Wᵀ·dy GEMM's — splits its panels across the workers, as the GEMM
// splits its rows; every element is one worker's, its taps added in
// order, so the split cannot change a bit.
func adjointPanels(lo, hi int, dx []float32, c, h, w int, wgt []float32, outC, kh, kw, stride, pad int, dy []float32, m int) {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	ph, pw := (h+stride-1)/stride, (w+stride-1)/stride
	k, cols, phw, ss := c*kh*kw, oh*ow, ph*pw, stride*stride
	same := oh == ph && ow == pw
	group := 1 // samples a call covers
	if same {
		group = max(AdjointRun/cols, 1)
	}
	sc := getAdj()
	defer putAdj(sc)
	sc.masks = 0
	ldc := ss * m * phw // one input channel to the next
	conv := func(ky, kx, s0, y0, x0, groups, rows, n int) {
		keep := sc.mask(groups, rows, n, ow, cols)
		span := (groups-1)*cols + (rows-1)*ow + n
		b := dy[s0*cols+y0*ow+x0:]
		iy, ix := y0*stride-pad+ky, x0*stride-pad+kx // the window's first input element
		phase := iy%stride*stride + ix%stride
		d := dx[(phase*m+s0)*phw+iy/stride*pw+ix/stride:]
		a := wgt[ky*kw+kx:]
		for c0 := lo * gemmMR; c0 < min(hi*gemmMR, c); c0 += gemmMR {
			convAdj(min(gemmMR, c-c0), outC, a[c0*kh*kw:], kh*kw, k, b, m*cols, span, d[c0*ldc:], ldc, keep, sc.t[:])
		}
	}
	for ky := 0; ky < kh; ky++ {
		oyLo, oyHi := tapRange(pad, ky, h, oh, stride)
		for kx := 0; kx < kw; kx++ {
			oxLo, oxHi := tapRange(pad, kx, w, ow, stride)
			if oyLo >= oyHi || oxLo >= oxHi {
				continue
			}
			wy, wx := oyHi-oyLo, oxHi-oxLo
			switch {
			case group > 1: // whole windows of several samples
				for s0 := 0; s0 < m; s0 += group {
					conv(ky, kx, s0, oyLo, oxLo, min(group, m-s0), wy, wx)
				}
			case same && wx <= AdjointRun: // rows of one sample's window
				rows := (AdjointRun-wx)/ow + 1
				for s := 0; s < m; s++ {
					for y0 := oyLo; y0 < oyHi; y0 += rows {
						conv(ky, kx, s, y0, oxLo, 1, min(rows, oyHi-y0), wx)
					}
				}
			default: // one row, in pieces of AdjointRun
				for s := 0; s < m; s++ {
					for y := oyLo; y < oyHi; y++ {
						for x0 := oxLo; x0 < oxHi; x0 += AdjointRun {
							conv(ky, kx, s, y, x0, 1, 1, min(AdjointRun, oxHi-x0))
						}
					}
				}
			}
		}
	}
}

// PhaseSplit writes the c×h×w image x into the interior of its padded
// phase image dst, the layout a strided direct convolution reads: each
// channel's plane, padded by pad on every side, split into its stride²
// phase planes — phase (a, b) holds padded element (a + stride·i,
// b + stride·j) at dst[(ch·stride² + a·stride + b)·plane + i·pitch + j].
// pitch is at least ⌈(w+2·pad)/stride⌉ and plane at least
// ⌈(h+2·pad)/stride⌉·pitch; the padding is not written. At stride 1 that
// is the padded image itself.
func PhaseSplit(dst, x []float32, c, h, w, stride, pad, plane, pitch int) {
	if c < 1 || h < 1 || w < 1 || stride < 1 || pad < 0 || pitch < (w+2*pad+stride-1)/stride ||
		plane < (h+2*pad+stride-1)/stride*pitch {
		panic("tensor: PhaseSplit geometry invalid")
	}
	ss, hw := stride*stride, h*w
	if len(x) < c*hw || len(dst) < c*ss*plane {
		panic("tensor: PhaseSplit operand too small")
	}
	if stride == 1 {
		for ch := 0; ch < c; ch++ {
			for r := 0; r < h; r++ {
				copy(dst[ch*plane+(r+pad)*pitch+pad:][:w], x[ch*hw+r*w:][:w])
			}
		}
		return
	}
	for a := 0; a < stride; a++ {
		r0 := ((a-pad)%stride + stride) % stride // the first input row in phase row a
		if r0 >= h {
			continue
		}
		for b := 0; b < stride; b++ {
			x0 := ((b-pad)%stride + stride) % stride
			if x0 >= w {
				continue
			}
			d := dst[(a*stride+b)*plane+(r0+pad)/stride*pitch+(x0+pad)/stride:]
			splitRows(d, x[r0*w+x0:], c, ss*plane, hw, (h-r0+stride-1)/stride, pitch, stride*w, (w-x0+stride-1)/stride, stride)
		}
	}
}

// PhaseMerge writes m samples of c channels of h×w planes, held in the
// stride² phase planes of ConvAdjoint's layout, to the NCHW batch dst as
// act(v + bias[ch]) — ConvStore's epilogue: no add where bias is nil or
// bias[ch] is ±0, the ReLU kernel's select when relu is set. Element
// (Y, X) of sample i, channel ch comes from phase (Y mod stride)·stride +
// X mod stride at row Y/stride, column X/stride. Beyond stride 1 the
// epilogue runs in place over src, which is then interleaved.
func PhaseMerge(dst, src []float32, c, h, w, stride, m int, bias []float32, relu bool) {
	if c < 1 || h < 1 || w < 1 || stride < 1 || m < 1 {
		panic("tensor: PhaseMerge geometry invalid")
	}
	ss, hw := stride*stride, h*w
	pw := (w + stride - 1) / stride
	phw := (h + stride - 1) / stride * pw
	if len(src) < c*ss*m*phw || len(dst) < m*c*hw {
		panic("tensor: PhaseMerge operand too small")
	}
	if stride == 1 {
		for i := 0; i < m; i++ {
			ConvStore(dst[i*c*hw:], src[i*hw:], bias, c, hw, m*hw, h, w, w, w, relu, false)
		}
		return
	}
	if bias != nil || relu {
		per := ss * m * phw // a channel's phase planes, as one row
		ConvStore(src, src, bias, c, per, per, 1, per, per, per, relu, false)
	}
	for i := 0; i < m; i++ {
		for a := 0; a < stride && a < h; a++ {
			for b := 0; b < stride && b < w; b++ {
				mergeRows(dst[i*c*hw+a*w+b:], src[((a*stride+b)*m+i)*phw:], c, hw, ss*m*phw, (h-a+stride-1)/stride, stride*w, pw, (w-b+stride-1)/stride, stride)
			}
		}
	}
}

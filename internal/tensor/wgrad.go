package tensor

import "sync"

// The weight gradient of a convolution or deconvolution over a chunk of
// samples, one call per layer per chunk. Its C is the weight matrix's
// gradient, one dot per element per sample; the sample order of the adds
// is the training trajectory's fingerprint, so it is fixed: each sample's
// dot, with sdotGeneric's structure, is added to C in turn.
//
// Where the reduction is short — a 4×4 or 8×8 output plane, k = 16 or 64 —
// a dot per element spends most of its time in its own reduction tree. So
// the kernel turns the product around: its lanes are C's columns. A
// sample's B is packed position-major, wgCols columns at a time (one
// gather per position, 1/m of the product's multiply-adds), and a C row's
// wgCols dots then run side by side, sdotGeneric's sixteen lane sums each
// one vector register, its fold, 8-block, tree and tail each a vertical
// add. The C vector stays in a register across the chunk's samples.
// Longer reductions keep the row-wise tiles (dotTile, convDot) per sample,
// which load each vector once for several dots.

const (
	// wgCols is the column count of one packed block: one AVX-512 vector,
	// two AVX2 ones.
	wgCols = 16
	// wgMaxK is the longest reduction the packed kernel takes. At k = 256
	// the row-wise tiles read 0.5 vectors per vector multiply-add against
	// the packed kernel's two, and win (BenchmarkGemmShapes' k = 256 rows).
	wgMaxK = 128
)

// WeightGrad adds a chunk of samples' weight-gradient products to c (m
// rows of n, ldc apart): for s = 0, 1, …, samples−1 in that order, for
// every r < m and j < n,
//
//	c[r*ldc+j] += dot(A_s[r], B_s[j])
//
// where dot has exactly sdotGeneric's structure over p < k,
// A_s[r][p] = a[s*aStep + r*lda + p], and B_s[j][p] is
//
//	b[s*bStep + j*ldb + p]                          when off is nil,
//	b[s*bStep + off[j] + (p/ow)*pitch + p%ow]       otherwise (n = len(off)).
//
// The first form is a lowering's window, its rows ldb apart (ow and pitch
// are unused); the second a halo image read in place, tap j's run of
// compact output index p (ldb is unused). Each element is the dot
// Gemm(false, true, …) takes over that sample's rows copied out, added
// sample by sample, so every ISA and either layout gives the same bits.
func WeightGrad(m, n, k, samples int, a []float32, lda, aStep int, b []float32, ldb, bStep int, off []int, ow, pitch int, c []float32, ldc int) {
	if off != nil {
		n = len(off)
	}
	if m <= 0 || n <= 0 || k <= 0 || samples <= 0 {
		return
	}
	if lda < k || aStep < 0 || bStep < 0 || ldc < n || len(c) < (m-1)*ldc+n ||
		len(a) < (samples-1)*aStep+(m-1)*lda+k {
		panic("tensor: WeightGrad operand too small")
	}
	last := (samples - 1) * bStep // the last sample's B, from b
	reach := (n - 1) * ldb        // the furthest row offset, a gather index
	if off == nil {
		if ldb < k || len(b) < last+reach+k {
			panic("tensor: WeightGrad operand too small")
		}
		ow, pitch = k, k
	} else {
		if ow <= 0 || pitch < ow {
			panic("tensor: WeightGrad operand too small")
		}
		span := (k-1)/ow*pitch + (k-1)%ow + 1 // b elements one row of B reaches over
		reach = 0
		for _, o := range off {
			if o < 0 || o > len(b)-last-span {
				panic("tensor: WeightGrad offset outside the image")
			}
			reach = max(reach, o)
		}
	}
	if k > wgMaxK || reach > 1<<31-1 {
		weightGradRows(m, n, k, samples, a, lda, aStep, b, ldb, bStep, off, ow, pitch, c, ldc)
		return
	}
	weightGradPacked(m, n, k, samples, a, lda, aStep, b, ldb, bStep, off, ow, pitch, c, ldc)
}

// weightGradPacked is WeightGrad for short reductions, wgCols columns of C
// at a time through wgPack and wgTile. A product of gemmParallelMin
// multiply-adds a sample or more splits its column blocks across the
// workers, as the GEMM splits its rows (gemmSerial); each element's adds
// keep their order whoever runs them, so the split cannot change a bit.
func weightGradPacked(m, n, k, samples int, a []float32, lda, aStep int, b []float32, ldb, bStep int, off []int, ow, pitch int, c []float32, ldc int) {
	blocks := (n + wgCols - 1) / wgCols
	if gemmSerial(m, n, k) {
		weightGradBlocks(0, blocks, m, n, k, samples, a, lda, aStep, b, ldb, bStep, off, ow, pitch, c, ldc)
		return
	}
	ParallelFor(blocks, func(lo, hi int) {
		weightGradBlocks(lo, hi, m, n, k, samples, a, lda, aStep, b, ldb, bStep, off, ow, pitch, c, ldc)
	})
}

func weightGradBlocks(lo, hi, m, n, k, samples int, a []float32, lda, aStep int, b []float32, ldb, bStep int, off []int, ow, pitch int, c []float32, ldc int) {
	sc := getWG(samples * k * wgCols)
	pk, idx := sc.pk, &sc.idx
	for j0 := lo * wgCols; j0 < min(hi*wgCols, n); j0 += wgCols {
		w := min(wgCols, n-j0)
		for jj := range idx {
			j := j0 + min(jj, w-1) // a dead column repeats the last live one
			if off != nil {
				idx[jj] = int32(off[j])
			} else {
				idx[jj] = int32(j * ldb)
			}
		}
		wgPack(pk, b, idx, k, ow, pitch, samples, bStep)
		wgTile(m, w, k, samples, a, lda, aStep, pk, c[j0:], ldc)
	}
	putWG(sc)
}

// wgScratch is the packed kernel's scratch, one per worker: a column
// block's B row offsets and its packed samples. They recycle through a free list, as
// the GEMM's packing buffers do, so a warm call allocates nothing.
type wgScratch struct {
	idx [wgCols]int32
	pk  []float32
}

var (
	wgMu   sync.Mutex
	wgFree []*wgScratch
)

func getWG(n int) *wgScratch {
	var sc *wgScratch
	wgMu.Lock()
	if k := len(wgFree); k > 0 {
		sc = wgFree[k-1]
		wgFree = wgFree[:k-1]
	}
	wgMu.Unlock()
	if sc == nil {
		sc = new(wgScratch)
	}
	if cap(sc.pk) < n {
		sc.pk = make([]float32, n)
	}
	sc.pk = sc.pk[:n]
	return sc
}

func putWG(sc *wgScratch) {
	wgMu.Lock()
	if len(wgFree) < 64 {
		wgFree = append(wgFree, sc)
	}
	wgMu.Unlock()
}

// weightGradRows is WeightGrad for long reductions: per sample, dotMR rows
// of C at a time through the row-wise tiles. A large product splits its
// rows across the workers, as weightGradPacked splits its blocks.
func weightGradRows(m, n, k, samples int, a []float32, lda, aStep int, b []float32, ldb, bStep int, off []int, ow, pitch int, c []float32, ldc int) {
	if gemmSerial(m, n, k) {
		weightGradRowRange(0, m, n, k, samples, a, lda, aStep, b, ldb, bStep, off, ow, pitch, c, ldc)
		return
	}
	ParallelFor(m, func(lo, hi int) {
		weightGradRowRange(lo, hi, n, k, samples, a, lda, aStep, b, ldb, bStep, off, ow, pitch, c, ldc)
	})
}

func weightGradRowRange(lo, hi, n, k, samples int, a []float32, lda, aStep int, b []float32, ldb, bStep int, off []int, ow, pitch int, c []float32, ldc int) {
	for s := 0; s < samples; s++ {
		as, bs := a[s*aStep:], b[s*bStep:]
		for i := lo; i < hi; i += dotMR {
			mr := min(dotMR, hi-i)
			if off == nil {
				dotTile(mr, n, k, 1, as[i*lda:], lda, bs, ldb, c[i*ldc:], ldc)
			} else {
				convDot(mr, n, k, as[i*lda:], lda, bs, off, ow, pitch, c[i*ldc:], ldc)
			}
		}
	}
}

// wgPack is the active packing kernel. For sample s < ns and position
// p < k it writes the wgCols floats
//
//	dst[(s*k+p)*wgCols + jj] = b[s*bs + (p/ow)*pitch + p%ow + idx[jj]]
//
// — position p of B rows idx[0..15], one vector gather each.
var wgPack = wgPackGeneric

func wgPackGeneric(dst, b []float32, idx *[wgCols]int32, k, ow, pitch, ns, bs int) {
	for s := 0; s < ns; s++ {
		for p := 0; p < k; p++ {
			src := b[s*bs+p/ow*pitch+p%ow:]
			d := dst[(s*k+p)*wgCols:][:wgCols]
			for jj, o := range idx {
				d[jj] = src[o]
			}
		}
	}
}

// wgTile is the active packed weight-gradient tile. For r < m and
// jj < w < wgCols it adds to c[r*ldc+jj], for s = 0..ns−1 in order,
//
//	dot(a[s*as + r*lda:][:k], column jj of pk's sample-s block)
//
// with sdotGeneric's structure; the block of sample s holds position p's
// wgCols columns at pk[(s*k+p)*wgCols:].
//
// The vector bodies run a C row's columns as lanes and need no shuffle:
// every one of sdotGeneric's adds is between two vectors of like columns.
// They skip the +0 each lane sum starts from and add one +0 to the whole
// dot instead. That is exact: x + y differs from (+0 + x) + y, or from
// (+0 + x) + (+0 + y), only when both are −0, and then the latter is +0,
// which is +0 + (x + y); so each add of the tree carries "+0 + raw" up to
// the final sum, and a −0 product still becomes +0. The scalar body is
// the definition written out.
var wgTile = wgTileGeneric

func wgTileGeneric(m, w, k, ns int, a []float32, lda, as int, pk []float32, c []float32, ldc int) {
	var col [wgMaxK]float32
	for s := 0; s < ns; s++ {
		blk := pk[s*k*wgCols:][:k*wgCols]
		for jj := 0; jj < w; jj++ {
			for p := range col[:k] {
				col[p] = blk[p*wgCols+jj]
			}
			for r := 0; r < m; r++ {
				c[r*ldc+jj] += sdotGeneric(a[s*as+r*lda:][:k], col[:k])
			}
		}
	}
}

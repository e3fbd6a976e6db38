package tensor

import "sync"

// SGEMM. Deep-learning convolutions lower (via im2col) to "tall skinny"
// matrix multiplies whose shapes differ from classic HPC BLAS — the paper's
// §II-A point. Both inner bodies keep C in registers for the whole k loop
// (gemm_tile.go): gemmTile holds a gemmMR-row × 32-column tile of C in
// accumulators for the NN and TN products, dotTile runs dotMR×4 whole-k
// dot products at once for NT and TT. C is parallelised over row panels
// (ParallelFor). Neither tile changes the per-element accumulation order
// of the row-at-a-time reference (k ascending single-rounded multiply-adds
// for the tile variants, one full-k dot with sdotGeneric's lane structure
// for the transpose-B variants), so scalar and vector, serial and
// parallel, all produce bitwise-identical C — the golden training
// fingerprints cannot tell the difference.

const (
	// gemmMR is the row count of one gemmTile panel.
	gemmMR = 8
	// dotMR is the row count of one dotTile panel.
	dotMR = 4
	// gemmKC is how many k steps of a row panel gemmABRowsScaled pre-scales
	// by alpha at a time (a stack buffer of gemmMR×gemmKC floats).
	gemmKC = 128
)

// Gemm computes C = alpha*op(A)*op(B) + beta*C where op is identity or
// transpose, A is m×k (after op), B is k×n (after op) and C is m×n. All
// matrices are dense row-major slices.
func Gemm(transA, transB bool, m, n, k int, alpha float32, a []float32, b []float32, beta float32, c []float32) {
	if m == 0 || n == 0 {
		return
	}
	if len(c) < m*n {
		panic("tensor: Gemm output too small")
	}
	// All three operands are checked before any kernel runs: an assembly
	// tile reads what its strides say, not what the slice holds.
	if len(a) < m*k || len(b) < k*n {
		panic("tensor: Gemm operand too small")
	}
	// Pre-scaling goes through the dispatched kernels: clear() compiles to
	// memclr, and scal is the vector scale body. Both write exactly what
	// the scalar element loop wrote (+0, round(beta*c[i])).
	if beta != 1 {
		if beta == 0 {
			clear(c[:m*n])
		} else {
			scal(beta, c[:m*n])
		}
	}
	if k == 0 || alpha == 0 {
		return
	}
	switch {
	case !transA && !transB:
		gemmAB(m, n, k, alpha, a, k, 1, b, c)
	case transA && !transB:
		// A is stored k×m: a panel's rows are adjacent floats, its k steps
		// m apart, so the transposed read needs no packing.
		gemmAB(m, n, k, alpha, a, 1, m, b, c)
	case !transA && transB:
		gemmNT(m, n, k, alpha, a, k, b, k, c)
	default:
		gemmTT(m, n, k, alpha, a, b, c)
	}
}

// Each variant splits into a dispatcher and a row-range body. The
// dispatcher calls the body directly when the loop would run inline
// (gemmSerial): building the ParallelFor closure would heap-allocate its
// captures on every GEMM, which the zero-steady-state-allocation contract
// of compiled plans forbids.

// gemmParallelMin is the multiply-add count below which a GEMM runs on the
// calling goroutine whatever the worker count. The rule is the one it has
// always had — fork only where a two-way split was measured to beat the
// inline product — re-measured over the register tiles (BenchmarkGemmSplit
// at -cpu 2; EXPERIMENTS.md "PR 21"). One thread now does about 30
// multiply-adds a nanosecond, and a forked half starts only once a parked
// P has woken, which on the 2-vCPU benchmark host outlasts most products:
// 16×256×144 (0.6M multiply-adds) takes 16 µs inline and 25 forked,
// 16×768×144 (1.8M) 54 against 78, 64×256×288 (4.7M) 155 against 175;
// 128×64×864 (7.1M) is the first to win, 237 against 186. An empty
// fork-join still reads 1–1.6 µs (the benchmark's tensor.parallelfor_us);
// the cost is the wake-up under real work, and a persistent worker pool
// (ROADMAP item 1) is what brings this number back down. A batch-1 serving
// request's products and every per-sample weight gradient are far below it.
// (A variable so the tests can force the split on small shapes.)
var gemmParallelMin = 6 << 20

// gemmSerial reports whether an m×n×k product runs inline: nothing to
// split, or too little work to split. The row partition never changes a C
// element's accumulation order, so the choice cannot change a bit.
func gemmSerial(m, n, k int) bool {
	return SerialFor(m) || m*n*k < gemmParallelMin
}

// gemmAB is C += alpha·A·B for the two untransposed-B cases. Element (i,p)
// of A is a[i*ars+p*aps]: (k, 1) for a row-major A, (1, m) for a stored
// transpose. Per C element the updates are k-ascending single-rounded
// multiply-adds with exact-zero alpha·a terms skipped — the row-at-a-time
// reference, whatever the panel and column blocking.
func gemmAB(m, n, k int, alpha float32, a []float32, ars, aps int, b, c []float32) {
	if gemmSerial(m, n, k) {
		gemmABRows(0, m, n, k, alpha, a, ars, aps, b, c)
		return
	}
	ParallelFor(m, func(lo, hi int) { gemmABRows(lo, hi, n, k, alpha, a, ars, aps, b, c) })
}

func gemmABRows(lo, hi, n, k int, alpha float32, a []float32, ars, aps int, b, c []float32) {
	if alpha != 1 {
		gemmABRowsScaled(lo, hi, n, k, alpha, a, ars, aps, b, c)
		return
	}
	for i := lo; i < hi; i += gemmMR {
		gemmTile(min(gemmMR, hi-i), n, k, a[i*ars:], ars, aps, b, n, c[i*n:], n)
	}
}

// gemmABRowsScaled is gemmABRows for alpha != 1. The tile multiplies by
// A's stored values, so round(alpha·a) is materialised first: gemmKC steps
// of one panel at a time in a stack buffer, the tile then run over that
// chunk of k. C passes through memory between chunks, which is exact, so
// the per-element order is still k ascending. No caller in this repository
// takes this path; it keeps Gemm's contract.
func gemmABRowsScaled(lo, hi, n, k int, alpha float32, a []float32, ars, aps int, b, c []float32) {
	var av [gemmMR * gemmKC]float32
	for i := lo; i < hi; i += gemmMR {
		mr := min(gemmMR, hi-i)
		for p0 := 0; p0 < k; p0 += gemmKC {
			kc := min(gemmKC, k-p0)
			for r := 0; r < mr; r++ {
				for p := 0; p < kc; p++ {
					av[r*kc+p] = float32(alpha * a[(i+r)*ars+(p0+p)*aps])
				}
			}
			gemmTile(mr, n, kc, av[:], kc, 1, b[p0*n:], n, c[i*n:], n)
		}
	}
}

// gemmNT: B is stored n×k (we need A·Bᵀ). Every C element is one
// contiguous dot over the whole of k — the dot's accumulator structure is
// part of the bitwise contract (see dot.go), so k is never split.
// Rows of A and B are lda and ldb floats apart (k for Gemm's dense
// operands; wider for GemmNTAcc's windows).
func gemmNT(m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32) {
	if gemmSerial(m, n, k) {
		gemmNTRows(0, m, n, k, alpha, a, lda, b, ldb, c)
		return
	}
	ParallelFor(m, func(lo, hi int) { gemmNTRows(lo, hi, n, k, alpha, a, lda, b, ldb, c) })
}

func gemmNTRows(lo, hi, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32) {
	for i := lo; i < hi; i += dotMR {
		dotTile(min(dotMR, hi-i), n, k, alpha, a[i*lda:], lda, b, ldb, c[i*n:], n)
	}
}

// GemmNTAcc computes C += A·Bᵀ for an m×k A and an n×k B that are windows
// of wider row-major matrices: row i of A is a[i*lda:i*lda+k], row j of B
// is b[j*ldb:j*ldb+k]. C is dense m×n. It is Gemm(false, true, …, 1, …, 1,
// c) — the same dot per element, so the same bits — without first copying
// the windows out; the convolution weight gradient uses it to read one
// sample's columns out of a lowering that holds the whole batch.
func GemmNTAcc(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if lda < k || ldb < k || len(a) < (m-1)*lda+k || len(b) < (n-1)*ldb+k || len(c) < m*n {
		panic("tensor: GemmNTAcc operand too small")
	}
	gemmNT(m, n, k, 1, a, lda, b, ldb, c)
}

// gemmTT: each strided column of A is packed contiguous once per row panel
// (into a recycled buffer), after which the panel is gemmNT's: dotMR×4
// contiguous dots at a time. No caller outside the tests transposes both.
func gemmTT(m, n, k int, alpha float32, a, b, c []float32) {
	if gemmSerial(m, n, k) {
		gemmTTRows(0, m, m, n, k, alpha, a, b, c)
		return
	}
	ParallelFor(m, func(lo, hi int) { gemmTTRows(lo, hi, m, n, k, alpha, a, b, c) })
}

func gemmTTRows(lo, hi, m, n, k int, alpha float32, a, b, c []float32) {
	pack := getPack(dotMR * k)
	for i := lo; i < hi; i += dotMR {
		mr := min(dotMR, hi-i)
		for r := 0; r < mr; r++ {
			dst := pack[r*k : (r+1)*k]
			for p := range dst {
				dst[p] = a[p*m+i+r]
			}
		}
		dotTile(mr, n, k, alpha, pack, k, b, k, c[i*n:], n)
	}
	putPack(pack)
}

// Packing buffers recycle through an explicit free list rather than a
// sync.Pool: pool contents do not survive GC, and a warmed GEMM path must
// stay allocation-free regardless of collector timing.
var (
	packMu   sync.Mutex
	packFree [][]float32
)

func getPack(n int) []float32 {
	packMu.Lock()
	for idx := len(packFree) - 1; idx >= 0; idx-- {
		if cap(packFree[idx]) >= n {
			buf := packFree[idx]
			packFree[idx] = packFree[len(packFree)-1]
			packFree = packFree[:len(packFree)-1]
			packMu.Unlock()
			return buf[:n]
		}
	}
	packMu.Unlock()
	return make([]float32, n)
}

func putPack(buf []float32) {
	packMu.Lock()
	if len(packFree) < 64 {
		packFree = append(packFree, buf)
	}
	packMu.Unlock()
}

// GemmFLOPs returns the algorithmic flop count of one m×n×k GEMM
// (a multiply and an add per inner-product term).
func GemmFLOPs(m, n, k int) int64 {
	return 2 * int64(m) * int64(n) * int64(k)
}

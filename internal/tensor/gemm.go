package tensor

import "sync"

// SGEMM kernels. Deep-learning convolutions lower (via im2col) to "tall
// skinny" matrix multiplies whose shapes differ from classic HPC BLAS — the
// paper's §II-A point. The implementation is cache-blocked and register-
// blocked: C is parallelised over row tiles (ParallelFor), each tile runs a
// 4-row micro-kernel (axpy4) over column blocks sized to keep the streamed
// B row and the four C rows L1-resident, and the dot-product variants tile
// B rows to stay L2-hot across the whole C panel. Every blocking choice
// preserves the per-element accumulation order of the row-at-a-time
// reference (k ascending for the axpy variants, one full-k sdot for the
// transpose-B variants), so blocked and unblocked, scalar and vector, all
// produce bitwise-identical C — the golden training fingerprints cannot
// tell the difference.

const (
	// gemmMR is the register-blocked row count: the axpy4 micro-kernel
	// updates four C rows per streamed B block.
	gemmMR = 4
	// gemmNC is the column tile (floats) for the axpy variants: four C row
	// tiles plus the B row tile fit comfortably in a 32 KiB L1.
	gemmNC = 512
	// gemmJB is the B-row tile for the transpose-B (sdot) variants: a
	// block of Bᵀ rows reused across every C row stays L2-resident.
	gemmJB = 256
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
		gemmNN(m, n, k, alpha, a, b, c)
	case transA && !transB:
		gemmTN(m, n, k, alpha, a, b, c)
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
// calling goroutine whatever the worker count. A fork-join costs 1–1.6 µs
// and six allocations here (the benchmark's tensor.parallelfor_us); at
// 25–30 GFLOP/s a product this size takes about 4 µs, so splitting it two
// ways cannot pay the fork-join back. The products under it are a
// batch-1 serving request's convolutions, dense heads, and the per-sample
// weight gradient of a convolution over a 4×4 plane.
const gemmParallelMin = 1 << 16

// gemmSerial reports whether an m×n×k product runs inline: nothing to
// split, or too little work to split. The row partition never changes a C
// element's accumulation order, so the choice cannot change a bit.
func gemmSerial(m, n, k int) bool {
	return SerialFor(m) || m*n*k < gemmParallelMin
}

// gemmNN: A m×k, B k×n. Row tiles of gemmMR C rows run the axpy4
// micro-kernel over gemmNC-column blocks; within a block the k-loop
// streams B rows while the four C row tiles stay hot. Per C element the
// updates remain k-ascending — the same order, hence the same bits, as
// the row-at-a-time reference that handles the remainder rows.
func gemmNN(m, n, k int, alpha float32, a, b, c []float32) {
	if gemmSerial(m, n, k) {
		gemmNNRows(0, m, n, k, alpha, a, b, c)
		return
	}
	ParallelFor(m, func(lo, hi int) { gemmNNRows(lo, hi, n, k, alpha, a, b, c) })
}

func gemmNNRows(lo, hi, n, k int, alpha float32, a, b, c []float32) {
	i := lo
	for ; i+gemmMR <= hi; i += gemmMR {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		c0 := c[(i+0)*n : (i+0)*n+n]
		c1 := c[(i+1)*n : (i+1)*n+n]
		c2 := c[(i+2)*n : (i+2)*n+n]
		c3 := c[(i+3)*n : (i+3)*n+n]
		for jc := 0; jc < n; jc += gemmNC {
			jw := n - jc
			if jw > gemmNC {
				jw = gemmNC
			}
			for p := 0; p < k; p++ {
				brow := b[p*n+jc : p*n+jc+jw]
				av0 := alpha * a0[p]
				av1 := alpha * a1[p]
				av2 := alpha * a2[p]
				av3 := alpha * a3[p]
				if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
					axpy4(av0, av1, av2, av3, brow,
						c0[jc:jc+jw], c1[jc:jc+jw], c2[jc:jc+jw], c3[jc:jc+jw])
					continue
				}
				// Zero alphas skip their row exactly as the reference
				// body skips them (adding round(0·b) would be a bitwise
				// no-op for finite inputs, but skipping is also faster).
				if av0 != 0 {
					axpy(av0, brow, c0[jc:jc+jw])
				}
				if av1 != 0 {
					axpy(av1, brow, c1[jc:jc+jw])
				}
				if av2 != 0 {
					axpy(av2, brow, c2[jc:jc+jw])
				}
				if av3 != 0 {
					axpy(av3, brow, c3[jc:jc+jw])
				}
			}
		}
	}
	for ; i < hi; i++ {
		arow := a[i*k : i*k+k]
		crow := c[i*n : i*n+n]
		for p := 0; p < k; p++ {
			av := alpha * arow[p]
			if av == 0 {
				continue
			}
			axpy(av, b[p*n:p*n+n], crow)
		}
	}
}

// gemmTN: A is stored k×m (we need Aᵀ·B). The gemmMR row tile makes the
// transposed access unit-stride — a[p*m+i .. p*m+i+3] are adjacent — so no
// A-panel packing is needed; the blocked loop otherwise matches gemmNN.
func gemmTN(m, n, k int, alpha float32, a, b, c []float32) {
	if gemmSerial(m, n, k) {
		gemmTNRows(0, m, m, n, k, alpha, a, b, c)
		return
	}
	ParallelFor(m, func(lo, hi int) { gemmTNRows(lo, hi, m, n, k, alpha, a, b, c) })
}

func gemmTNRows(lo, hi, m, n, k int, alpha float32, a, b, c []float32) {
	i := lo
	for ; i+gemmMR <= hi; i += gemmMR {
		c0 := c[(i+0)*n : (i+0)*n+n]
		c1 := c[(i+1)*n : (i+1)*n+n]
		c2 := c[(i+2)*n : (i+2)*n+n]
		c3 := c[(i+3)*n : (i+3)*n+n]
		for jc := 0; jc < n; jc += gemmNC {
			jw := n - jc
			if jw > gemmNC {
				jw = gemmNC
			}
			for p := 0; p < k; p++ {
				brow := b[p*n+jc : p*n+jc+jw]
				base := p*m + i
				av0 := alpha * a[base]
				av1 := alpha * a[base+1]
				av2 := alpha * a[base+2]
				av3 := alpha * a[base+3]
				if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
					axpy4(av0, av1, av2, av3, brow,
						c0[jc:jc+jw], c1[jc:jc+jw], c2[jc:jc+jw], c3[jc:jc+jw])
					continue
				}
				if av0 != 0 {
					axpy(av0, brow, c0[jc:jc+jw])
				}
				if av1 != 0 {
					axpy(av1, brow, c1[jc:jc+jw])
				}
				if av2 != 0 {
					axpy(av2, brow, c2[jc:jc+jw])
				}
				if av3 != 0 {
					axpy(av3, brow, c3[jc:jc+jw])
				}
			}
		}
	}
	for ; i < hi; i++ {
		crow := c[i*n : i*n+n]
		for p := 0; p < k; p++ {
			av := alpha * a[p*m+i]
			if av == 0 {
				continue
			}
			axpy(av, b[p*n:p*n+n], crow)
		}
	}
}

// gemmNT: B is stored n×k (we need A·Bᵀ). Every C element is one
// contiguous sdot; blocking tiles the Bᵀ rows so a gemmJB×k panel of B is
// reused across the whole row range before the next panel streams in. The
// k dimension is never split — the sdot accumulator structure is part of
// the bitwise contract (see dot.go).
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
	for jb := 0; jb < n; jb += gemmJB {
		jhi := jb + gemmJB
		if jhi > n {
			jhi = n
		}
		for i := lo; i < hi; i++ {
			arow := a[i*lda : i*lda+k]
			crow := c[i*n : i*n+n]
			for j := jb; j < jhi; j++ {
				crow[j] += alpha * sdot(arow, b[j*ldb:j*ldb+k])
			}
		}
	}
}

// GemmNTAcc computes C += A·Bᵀ for an m×k A and an n×k B that are windows
// of wider row-major matrices: row i of A is a[i*lda:i*lda+k], row j of B
// is b[j*ldb:j*ldb+k]. C is dense m×n. It is Gemm(false, true, …, 1, …, 1,
// c) — the same sdot per element, so the same bits — without first copying
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

// gemmTT: each strided column of A is packed contiguous once per row tile
// (k-panel packing into a recycled buffer — the pack-and-multiply trade),
// after which every output element is a contiguous sdot over the same
// gemmJB-tiled B panels as gemmNT.
func gemmTT(m, n, k int, alpha float32, a, b, c []float32) {
	if gemmSerial(m, n, k) {
		gemmTTRows(0, m, m, n, k, alpha, a, b, c)
		return
	}
	ParallelFor(m, func(lo, hi int) { gemmTTRows(lo, hi, m, n, k, alpha, a, b, c) })
}

func gemmTTRows(lo, hi, m, n, k int, alpha float32, a, b, c []float32) {
	pack := getPack(gemmMR * k)
	i := lo
	for ; i+gemmMR <= hi; i += gemmMR {
		for r := 0; r < gemmMR; r++ {
			dst := pack[r*k : (r+1)*k]
			for p := 0; p < k; p++ {
				dst[p] = a[p*m+i+r]
			}
		}
		for jb := 0; jb < n; jb += gemmJB {
			jhi := jb + gemmJB
			if jhi > n {
				jhi = n
			}
			for r := 0; r < gemmMR; r++ {
				acol := pack[r*k : (r+1)*k]
				crow := c[(i+r)*n : (i+r)*n+n]
				for j := jb; j < jhi; j++ {
					crow[j] += alpha * sdot(acol, b[j*k:j*k+k])
				}
			}
		}
	}
	for ; i < hi; i++ {
		acol := pack[:k]
		for p := 0; p < k; p++ {
			acol[p] = a[p*m+i]
		}
		crow := c[i*n : i*n+n]
		for j := 0; j < n; j++ {
			crow[j] += alpha * sdot(acol, b[j*k:j*k+k])
		}
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

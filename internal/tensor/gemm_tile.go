package tensor

// The two register-tile micro-kernels under Gemm. Both are rows of the
// dispatch table (kernels.go) with scalar, AVX2 and AVX-512 bodies; the
// scalar bodies below are the reference semantics and the vector bodies
// (gemm_amd64.s) reproduce them bit for bit. Neither packs an operand or
// owns a buffer: gemmTile broadcasts A straight from its storage and reads
// B rows unit-stride, dotTile reads rows of A and B as they lie.

// gemmTile is the active NN/TN micro-kernel. For one panel of mr ≤ gemmMR
// rows it computes, for every r < mr and j < n,
//
//	c[r*ldc+j] = round(c[r*ldc+j] + round(a[r*ars+p*aps] * b[p*ldb+j]))
//
// over p = 0..k-1 ascending, skipping every step whose A element is ±0 (so
// a zero in A never meets an Inf or NaN in B, and never turns a −0 in C
// into +0). The vector bodies hold a tile of C in accumulators for the
// whole k loop — lanes are output columns, so the per-element order is the
// scalar one — and test A's bits for zero before they broadcast it.
var gemmTile = gemmTileGeneric

func gemmTileGeneric(mr, n, k int, a []float32, ars, aps int, b []float32, ldb int, c []float32, ldc int) {
	for r := 0; r < mr; r++ {
		crow := c[r*ldc : r*ldc+n]
		for p := 0; p < k; p++ {
			av := a[r*ars+p*aps]
			if av == 0 {
				continue
			}
			axpyGeneric(av, b[p*ldb:p*ldb+n], crow)
		}
	}
}

// dotTile is the active NT/TT micro-kernel. For one panel of mr ≤ dotMR
// rows it computes, for every r < mr and j < n,
//
//	c[r*ldc+j] += round(alpha * dot(a[r*lda:r*lda+k], b[j*ldb:j*ldb+k]))
//
// where dot has exactly sdotGeneric's structure (dot.go). The vector
// bodies run a block of dots at once, one accumulator per dot, so their
// latency chains overlap and each row of A and B is loaded once per block;
// the dots of a block are reduced together, by the same tree.
var dotTile = dotTileGeneric

func dotTileGeneric(mr, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for r := 0; r < mr; r++ {
		arow := a[r*lda : r*lda+k]
		crow := c[r*ldc : r*ldc+n]
		for j := range crow {
			crow[j] += float32(alpha * sdotGeneric(arow, b[j*ldb:j*ldb+k]))
		}
	}
}

package tensor

// The single-precision dot product under the transpose-B GEMM cases and
// the weight gradient. Its accumulator structure is part of the bitwise
// contract: sixteen independent lane accumulators in two groups of eight,
// s0..s7 and r0..r7, each starting from +0; the second group folded onto
// the first (s += r), at most one further 8-float block onto s, the
// reduction tree ((s0+s4)+(s2+s6))+((s1+s5)+(s3+s7)), then a sequential
// scalar tail. Multiply and add are separate, never FMA. sdotGeneric is
// that structure written out, and the vector bodies hold it in one of two
// forms:
//
//   - lanes over the dot (dotTile, convDot): the sixteen lane sums are
//     the lanes of one 16-lane vector register, or of two 8-lane ones,
//     and several dots run side by side, reduced together by shuffles
//     that pair like lanes of different registers;
//   - lanes over C's columns (wgTile, the packed weight gradient): each
//     lane sum is a whole vector register, one lane per C column, so
//     every step of the fold, the 8-block, the tree and the tail is one
//     vertical add. Its lane sums start from their first product and one
//     +0 is added to the finished dot instead, which gives the same bits
//     (see wgTile).
//
// Every dispatch choice therefore produces bitwise-identical sums; no
// test or checkpoint can tell which machine computed a GEMM.

// sdotGeneric returns Σ x[i]*y[i] over i < len(x). len(y) must be >= len(x).
func sdotGeneric(x, y []float32) float32 {
	// s0..s7 and r0..r7 are the lanes of the AVX2 tile's two YMM
	// accumulators, the two halves of the AVX-512 tile's one ZMM. The
	// float32 conversions force each product to round before the add,
	// preventing the compiler from fusing into FMA on platforms where it
	// otherwise would (see axpyGeneric).
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	var r0, r1, r2, r3, r4, r5, r6, r7 float32
	j := 0
	for ; j+16 <= len(x); j += 16 {
		s0 += float32(x[j] * y[j])
		s1 += float32(x[j+1] * y[j+1])
		s2 += float32(x[j+2] * y[j+2])
		s3 += float32(x[j+3] * y[j+3])
		s4 += float32(x[j+4] * y[j+4])
		s5 += float32(x[j+5] * y[j+5])
		s6 += float32(x[j+6] * y[j+6])
		s7 += float32(x[j+7] * y[j+7])
		r0 += float32(x[j+8] * y[j+8])
		r1 += float32(x[j+9] * y[j+9])
		r2 += float32(x[j+10] * y[j+10])
		r3 += float32(x[j+11] * y[j+11])
		r4 += float32(x[j+12] * y[j+12])
		r5 += float32(x[j+13] * y[j+13])
		r6 += float32(x[j+14] * y[j+14])
		r7 += float32(x[j+15] * y[j+15])
	}
	// Merge the second accumulator group lane-wise (VADDPS Y1, Y0).
	s0 += r0
	s1 += r1
	s2 += r2
	s3 += r3
	s4 += r4
	s5 += r5
	s6 += r6
	s7 += r7
	// At most one remaining 8-float block.
	if j+8 <= len(x) {
		s0 += float32(x[j] * y[j])
		s1 += float32(x[j+1] * y[j+1])
		s2 += float32(x[j+2] * y[j+2])
		s3 += float32(x[j+3] * y[j+3])
		s4 += float32(x[j+4] * y[j+4])
		s5 += float32(x[j+5] * y[j+5])
		s6 += float32(x[j+6] * y[j+6])
		s7 += float32(x[j+7] * y[j+7])
		j += 8
	}
	// Reduction tree in the vector tiles' order: upper half onto lower
	// half, then lanes 2,3 onto 0,1, then the final pair.
	t0 := float32(s0 + s4)
	t1 := float32(s1 + s5)
	t2 := float32(s2 + s6)
	t3 := float32(s3 + s7)
	s := float32(t0+t2) + float32(t1+t3)
	for ; j < len(x); j++ {
		s += float32(x[j] * y[j])
	}
	return s
}

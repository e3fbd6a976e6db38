package tensor

import (
	"fmt"
	"math"
	"testing"
)

// weightGradRef is WeightGrad's definition written out: per sample in
// order, each B row gathered by hand, one sdotGeneric per C element added
// onto what C holds.
func weightGradRef(m, n, k, samples int, a []float32, lda, aStep int, b []float32, ldb, bStep int, off []int, ow, pitch int, c []float32, ldc int) {
	row := make([]float32, k)
	for s := 0; s < samples; s++ {
		for j := 0; j < n; j++ {
			for p := range row {
				if off == nil {
					row[p] = b[s*bStep+j*ldb+p]
				} else {
					row[p] = b[s*bStep+off[j]+p/ow*pitch+p%ow]
				}
			}
			for r := 0; r < m; r++ {
				c[r*ldc+j] += sdotGeneric(a[s*aStep+r*lda:][:k], row)
			}
		}
	}
}

// madeNaN is the NaN the hardware makes for ∞·0 (its bits differ between
// machines, hence a variable computed at run time).
var madeNaN = func() float32 {
	x := []float32{float32(math.Inf(1)), 0}
	return x[0] * x[1]
}()

// fillMadeNaN is fillSpecial with every NaN the one the kernels make (∞·0,
// ∞−∞): a NaN from the input and a NaN made on the way then carry one
// payload, so which of two NaNs an add keeps — which the compiled scalar
// body does not pin — cannot show, and the NaN's reach still does.
func fillMadeNaN(rng *RNG, s []float32) {
	fillSpecial(rng, s)
	for i, v := range s {
		if v != v {
			s[i] = madeNaN
		}
	}
}

// FuzzWeightGradBitwise holds every ISA body of WeightGrad to per-sample
// sdotGeneric sums added in sample order: m, n up to 40 (every column
// tail of the packed blocks), k up to 80 (whole 16-blocks, the 8-block and
// the scalar tail), 1 to 17 samples, a lowering's windows or a halo
// image's runs, and ±0, ±Inf, NaN and subnormals in A, B and C.
func FuzzWeightGradBitwise(f *testing.F) {
	for _, s := range [][7]uint8{
		{16, 27, 16, 4, 1, 4, 1}, {40, 40, 80, 17, 0, 0, 2}, {1, 1, 1, 1, 0, 0, 3}, {7, 17, 24, 3, 1, 3, 4},
		{9, 16, 64, 2, 1, 8, 5}, {33, 31, 9, 5, 0, 0, 6}, {4, 15, 31, 1, 1, 7, 7}, {13, 33, 8, 16, 1, 1, 8},
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6])
	}
	f.Fuzz(func(t *testing.T, mb, nb, kb, sb, halo, owb, seed uint8) {
		m, n, k, samples := 1+int(mb)%40, 1+int(nb)%40, 1+int(kb)%80, 1+int(sb)%17
		rng := NewRNG(uint64(seed) + 1)
		lda, ldc := k+rng.Intn(3), n+rng.Intn(3)
		aStep := (m-1)*lda + k + rng.Intn(5)
		a := make([]float32, (samples-1)*aStep+(m-1)*lda+k)
		var b []float32
		var off []int
		ldb, ow, pitch, bStep := 0, 0, 0, 0
		if halo%2 == 0 { // a lowering's windows
			ldb = k + rng.Intn(2*k+1)
			bStep = k + rng.Intn(4)
			b = make([]float32, (samples-1)*bStep+(n-1)*ldb+k)
		} else { // a halo image's runs
			ow = 1 + int(owb)%17
			pitch = ow + rng.Intn(5)
			span := (k-1)/ow*pitch + (k-1)%ow + 1
			img := span + rng.Intn(3*pitch+1)
			bStep = img + rng.Intn(3)
			b = make([]float32, (samples-1)*bStep+img)
			off = make([]int, n)
			for j := range off {
				off[j] = rng.Intn(img - span + 1)
			}
			off[n-1] = img - span // the last run ends at the end of the image
		}
		c := make([]float32, (m-1)*ldc+n)
		fillMadeNaN(rng, a)
		fillMadeNaN(rng, b)
		fillMadeNaN(rng, c)
		want := append([]float32(nil), c...)
		weightGradRef(m, n, k, samples, a, lda, aStep, b, ldb, bStep, off, ow, pitch, want, ldc)
		withISAs(t, func(isa string) {
			got := append([]float32(nil), c...)
			WeightGrad(m, n, k, samples, a, lda, aStep, b, ldb, bStep, off, ow, pitch, got, ldc)
			requireSameBits(t, fmt.Sprintf("WeightGrad[%s] m=%d n=%d k=%d samples=%d halo=%v ow=%d pitch=%d", isa, m, n, k, samples, off != nil, ow, pitch), got, want)
		})
	})
}

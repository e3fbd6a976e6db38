package tensor

import (
	"fmt"
	"math"
	"testing"
)

// fillFinite is fillSpecial without NaN: every NaN the kernels then meet
// is one they made (∞·0, ∞−∞), which has one payload, so which of two
// NaNs an add keeps cannot show.
func fillFinite(rng *RNG, s []float32) {
	fillSpecial(rng, s)
	for i, v := range s {
		if v != v {
			s[i] = float32(math.Inf(1 - 2*(i%2)))
		}
	}
}

// TestConvTileBitwiseAcrossISAs holds every ISA body of convTile to the Go
// body: every panel height, column counts around each vector width and
// tile, k from none to a 3×3×3 kernel, offset tables that repeat, go
// backwards and reach the end of the image, A with exact zeros and
// infinities against B with infinities and zeros. C starts as garbage and
// is overwritten; the two columns between its rows are never touched.
func TestConvTileBitwiseAcrossISAs(t *testing.T) {
	const guard = float32(-777.25)
	rng := NewRNG(26)
	for mr := 1; mr <= gemmMR; mr++ {
		for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 48, 50, 64, 71} {
			for _, k := range []int{0, 1, 2, 9, 27} {
				lda, ldc := k+3, n+2
				a := make([]float32, mr*lda)
				b := make([]float32, n+40+rng.Intn(8))
				off := make([]int, k)
				for p := range off {
					off[p] = rng.Intn(len(b) - n + 1)
				}
				if k > 0 {
					off[k-1] = len(b) - n
				}
				fillFinite(rng, a)
				fillSparse(rng, a[:len(a)/2], 4)
				fillFinite(rng, b)
				c := make([]float32, mr*ldc)
				for i := range c {
					c[i] = guard
				}
				want := append([]float32(nil), c...)
				convTileGeneric(mr, n, k, a, lda, b, off, want, ldc)
				withISAs(t, func(isa string) {
					got := append([]float32(nil), c...)
					convTile(mr, n, k, a, lda, b, off, got, ldc)
					requireSameBits(t, fmt.Sprintf("convTile[%s] mr=%d n=%d k=%d", isa, mr, n, k), got, want)
				})
			}
		}
	}
}

// TestConvTileIsTheLoweredGemm is the kernel's contract at its one use: on
// a halo image, ConvTile's pitch-strided columns are, bit for bit, the
// columns Gemm gives over the image's im2col lowering — kernels 1 to 5,
// pads 0 to 2, planes narrower and wider than a tile, under every ISA.
func TestConvTileIsTheLoweredGemm(t *testing.T) {
	rng := NewRNG(2026)
	for trial := 0; trial < 40; trial++ {
		c, m := 1+rng.Intn(5), 1+rng.Intn(19)
		kk, pad := 1+rng.Intn(5), rng.Intn(3)
		h, w := max(kk-2*pad, 1)+rng.Intn(9), max(kk-2*pad, 1)+rng.Intn(40)
		oh, ow := ConvOut(h, kk, 1, pad), ConvOut(w, kk, 1, pad)
		pitch, plane := w+2*pad, (h+2*pad)*(w+2*pad)
		img := make([]float32, c*h*w)
		fillFinite(rng, img)
		halo := make([]float32, c*plane)
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				copy(halo[ch*plane+(y+pad)*pitch+pad:][:w], img[(ch*h+y)*w:][:w])
			}
		}
		k := c * kk * kk
		off := make([]int, 0, k)
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kk; ky++ {
				for kx := 0; kx < kk; kx++ {
					off = append(off, ch*plane+ky*pitch+kx)
				}
			}
		}
		wt := make([]float32, m*k)
		fillFinite(rng, wt)
		fillSparse(rng, wt[:len(wt)/2], 3)

		col := make([]float32, k*oh*ow)
		Im2colInto(img, c, h, w, kk, kk, 1, pad, col, oh*ow, 0)
		want := make([]float32, m*oh*ow)
		Gemm(false, false, m, oh*ow, k, 1, wt, col, 0, want)

		n := (oh-1)*pitch + ow
		withISAs(t, func(isa string) {
			got := make([]float32, m*n)
			ConvTile(m, n, wt, k, halo, off, got, n)
			for r := 0; r < m; r++ {
				for oy := 0; oy < oh; oy++ {
					tag := fmt.Sprintf("%s trial %d (c %d m %d k %d pad %d %dx%d) row %d oy %d", isa, trial, c, m, kk, pad, h, w, r, oy)
					requireSameBits(t, tag, got[r*n+oy*pitch:][:ow], want[(r*oh+oy)*ow:][:ow])
				}
			}
		})
	}
}

// TestConvStoreBitwiseAcrossISAs holds every ISA body of the epilogue to
// the Go body: with and without ReLU and pool, a nil bias and biases of
// +0, −0, ±∞ and normal values, NaN, ±0 and ±∞ in the C block, widths
// 0..40 so every vector block and tail occurs, one to three planes and
// rows, pitches and plane strides with slack. Everything the kernel may not
// write — between rows and planes, past the last output — must come back
// unchanged.
func TestConvStoreBitwiseAcrossISAs(t *testing.T) {
	const guard = float32(-31.5)
	rng := NewRNG(62)
	biases := []float32{0, float32(math.Copysign(0, -1)), 1.5, -0.25, float32(math.Inf(1))}
	for _, pool := range []bool{false, true} {
		for _, relu := range []bool{false, true} {
			for n := 0; n <= 40; n++ {
				for _, shape := range [][2]int{{1, 1}, {2, 3}, {3, 2}} {
					planes, rows := shape[0], shape[1]
					sn, sr := n, rows
					if pool {
						sn, sr = 2*n, 2*rows
					}
					sp, dp := sn+rng.Intn(5), n+rng.Intn(3)
					spl, dpl := sr*sp+rng.Intn(4), rows*dp+rng.Intn(4)
					src := make([]float32, planes*spl)
					fillSpecial(rng, src)
					bias := make([]float32, planes)
					for i := range bias {
						bias[i] = biases[rng.Intn(len(biases))]
					}
					for _, bs := range [][]float32{nil, bias} {
						dst := make([]float32, planes*dpl+1)
						for i := range dst {
							dst[i] = guard
						}
						want := append([]float32(nil), dst...)
						convStoreGeneric(want, src, bs, planes, dpl, spl, rows, dp, sp, n, relu, pool)
						withISAs(t, func(isa string) {
							got := append([]float32(nil), dst...)
							ConvStore(got, src, bs, planes, dpl, spl, rows, dp, sp, n, relu, pool)
							tag := fmt.Sprintf("convStore[%s] pool %v relu %v n %d planes %d rows %d bias %v", isa, pool, relu, n, planes, rows, bs)
							requireSameBits(t, tag, got, want)
						})
					}
				}
			}
		}
	}
}

// TestConvStoreIsTheSeparatePasses pins the epilogue's definition against
// the passes it replaces in a lowered convolution: the bias folded into
// the NCHW copy (a ±0 bias copies), then the ReLU kernel, then the 2×2/2
// pool kernel, on a block whose values include NaN, ±0 and ±∞.
func TestConvStoreIsTheSeparatePasses(t *testing.T) {
	rng := NewRNG(7)
	const planes, h, w = 3, 6, 10
	src := make([]float32, planes*h*w)
	fillSpecial(rng, src)
	bias := []float32{float32(math.Copysign(0, -1)), 0.75, 0}
	for _, relu := range []bool{false, true} {
		ref := make([]float32, len(src))
		for p := 0; p < planes; p++ {
			for i, v := range src[p*h*w : (p+1)*h*w] {
				if bias[p] != 0 {
					v += bias[p]
				}
				ref[p*h*w+i] = v
			}
		}
		if relu {
			ReLU(ref, ref)
		}
		withISAs(t, func(isa string) {
			got := make([]float32, len(src))
			ConvStore(got, src, bias, planes, h*w, h*w, h, w, w, w, relu, false)
			requireSameBits(t, fmt.Sprintf("%s relu %v", isa, relu), got, ref)
			pooled, want := make([]float32, planes*h*w/4), make([]float32, planes*h*w/4)
			for p := 0; p < planes; p++ {
				for r := 0; r < h/2; r++ {
					MaxPool2x2(want[(p*h/2+r)*w/2:][:w/2], ref[(p*h+2*r)*w:][:w], ref[(p*h+2*r+1)*w:][:w])
				}
			}
			ConvStore(pooled, src, bias, planes, h*w/4, h*w, h/2, w/2, w, w/2, relu, true)
			requireSameBits(t, fmt.Sprintf("%s relu %v pooled", isa, relu), pooled, want)
		})
	}
}

// TestConvKernelsValidateOperands: the assembly bodies read and write what
// the geometry says, so every operand is checked before one runs.
func TestConvKernelsValidateOperands(t *testing.T) {
	a, b, c := make([]float32, 2*9), make([]float32, 40), make([]float32, 2*16)
	off := []int{0, 1, 2, 10, 11, 12, 20, 21, 22}
	ConvTile(2, 16, a, 9, b, off, c, 16) // in bounds
	src, dst := make([]float32, 2*4*8), make([]float32, 2*2*4)
	ConvStore(dst, src, nil, 2, 8, 32, 2, 4, 8, 4, true, true) // both exactly long enough
	for name, f := range map[string]func(){
		"tile offset past the image": func() { ConvTile(2, 16, a, 9, b, []int{0, 25}, c, 16) },
		"tile negative offset":       func() { ConvTile(2, 16, a, 9, b, []int{-1}, c, 16) },
		"tile short a":               func() { ConvTile(3, 16, a, 9, b, off, make([]float32, 48), 16) },
		"tile short c":               func() { ConvTile(2, 16, a, 9, b, off, c[:31], 16) },
		"tile lda under k":           func() { ConvTile(1, 16, a, 8, b, off, c, 16) },
		"store short src":            func() { ConvStore(dst, src[:63], nil, 2, 8, 32, 2, 4, 8, 4, true, true) },
		"store short dst":            func() { ConvStore(dst[:15], src, nil, 2, 8, 32, 2, 4, 8, 4, true, true) },
		"store short bias":           func() { ConvStore(dst, src, []float32{1}, 2, 8, 32, 2, 4, 8, 4, true, true) },
		"store pitch under width":    func() { ConvStore(dst, src, nil, 2, 8, 32, 2, 4, 7, 4, true, true) },
		"store negative plane":       func() { ConvStore(dst, src, nil, 2, -8, 32, 2, 4, 8, 4, true, true) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

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
			ConvTile(m, n, wt, k, halo, off, nil, got, n)
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

// TestWeightGradHaloIsGatherThenDot holds WeightGrad over a halo image, under
// every kernel table, to its definition: each B row gathered out of the
// image by hand, then one sdotGeneric per C element, accumulated onto
// what C held, sample after sample. Output widths 1 to 33 at pitches ow to
// ow+4 make rows of compact indices start anywhere in a vector and reach
// across up to sixteen rows; k runs through lengths with and without the
// 8-block and the scalar tail, and on both sides of the packed kernel's
// limit; m and n through the panel, tap-group and column-block tails. The
// last tap's run ends exactly at the end of the last image. Each case runs
// on one to three workers, every product forced through the split.
func TestWeightGradHaloIsGatherThenDot(t *testing.T) {
	rng := NewRNG(35)
	defer SetWorkers(SetWorkers(1))
	defer forceSplit()()
	for ow := 1; ow <= 33; ow++ {
		for pitch := ow; pitch <= ow+4; pitch++ {
			for _, k := range []int{1, 5, 8, 9, 15, 16, 17, 23, 24, 31, 33, 40, 57, 64, 144} {
				m, n, samples := 1+rng.Intn(9), 1+rng.Intn(20), 1+rng.Intn(4)
				SetWorkers(1 + rng.Intn(3))
				span := (k-1)/ow*pitch + (k-1)%ow + 1
				img := span + rng.Intn(3*pitch+1)
				b := make([]float32, (samples-1)*img+img)
				off := make([]int, n)
				for j := range off {
					off[j] = rng.Intn(img - span + 1)
				}
				off[n-1] = img - span
				lda, ldc := k+rng.Intn(3), n+rng.Intn(3)
				aStep := (m-1)*lda + k
				a := make([]float32, (samples-1)*aStep+(m-1)*lda+k)
				fillFinite(rng, a)
				fillSparse(rng, a[:len(a)/3], 4)
				fillFinite(rng, b)
				c := make([]float32, (m-1)*ldc+n)
				fillFinite(rng, c)
				want := append([]float32(nil), c...)
				weightGradRef(m, n, k, samples, a, lda, aStep, b, 0, img, off, ow, pitch, want, ldc)
				withISAs(t, func(isa string) {
					got := append([]float32(nil), c...)
					WeightGrad(m, 0, k, samples, a, lda, aStep, b, 0, img, off, ow, pitch, got, ldc)
					requireSameBits(t, fmt.Sprintf("WeightGrad[%s] m=%d n=%d k=%d samples=%d ow=%d pitch=%d", isa, m, n, k, samples, ow, pitch), got, want)
				})
			}
		}
	}
}

// TestConvStoreArgmaxIsThePoolKernel pins the training store, under every
// kernel table, to the passes it replaces: ConvStore's unpooled epilogue
// into a full plane, then MaxPool2x2Argmax over each row pair — values and
// winner offsets both. Planes 1 to 3 of odd and even heights and widths 2
// to 40 (the odd last row and column are never read) hold NaN, ±0, ±∞ and
// runs of repeated values, so ties and windows nothing wins occur; the
// block starts at a nonzero row so base is exercised, and a guard after
// every destination must survive.
func TestConvStoreArgmaxIsThePoolKernel(t *testing.T) {
	const guard = float32(-9.75)
	rng := NewRNG(36)
	biases := []float32{0, float32(math.Copysign(0, -1)), 1.5, float32(math.Inf(-1))}
	for _, relu := range []bool{false, true} {
		for w := 2; w <= 40; w++ {
			planes, h := 1+rng.Intn(3), 2+rng.Intn(4)
			oh, ow := h/2, w/2
			y0 := 2 * rng.Intn(3) // rows above the block in the plane
			pitch := w + rng.Intn(3)
			src := make([]float32, planes*h*pitch)
			fillSpecial(rng, src)
			bias := make([]float32, planes)
			for i := range bias {
				bias[i] = biases[rng.Intn(len(biases))]
			}
			full := make([]float32, planes*h*w)
			ConvStore(full, src, bias, planes, h*w, h*pitch, h, w, pitch, w, relu, false)
			want := make([]float32, planes*oh*ow+1)
			wantIdx := make([]int32, planes*oh*ow+1)
			want[len(want)-1], wantIdx[len(wantIdx)-1] = guard, -5
			for p := 0; p < planes; p++ {
				for r := 0; r < oh; r++ {
					at := (p*oh + r) * ow
					MaxPool2x2Argmax(want[at:at+ow], wantIdx[at:at+ow], full[(p*h+2*r)*w:][:w&^1], full[(p*h+2*r+1)*w:][:w&^1], (y0+2*r)*w, w)
				}
			}
			withISAs(t, func(isa string) {
				got := make([]float32, len(want))
				idx := make([]int32, len(wantIdx))
				got[len(got)-1], idx[len(idx)-1] = guard, -5
				ConvStoreArgmax(got, idx, src, bias, planes, oh*ow, oh*ow, h*pitch, oh, ow, pitch, ow, y0*w, w, relu)
				tag := fmt.Sprintf("%s relu %v planes %d %dx%d", isa, relu, planes, h, w)
				requireSameBits(t, tag, got, want)
				for i := range idx {
					if idx[i] != wantIdx[i] {
						t.Fatalf("%s: winner %d at %d, MaxPool2x2Argmax records %d", tag, i, idx[i], wantIdx[i])
					}
				}
			})
		}
	}
}

// TestConvUnpoolIsPoolThenReLUBackward pins ConvUnpool, under every kernel
// table, to the backward passes it replaces on the forward it serves: a
// full-plane ConvStore, MaxPool2x2Argmax, and then the pool's backward
// (clear, add g at each winner) and ReLUGrad on the ReLU's output. Planes
// of odd and even sizes from 2×2 to 7×37 get g with NaN, ±0 and ±∞; the
// pooled values are read at a pitch and plane stride with slack, as from a
// halo image. Without a ReLU, windows nothing wins send their g to the
// plane's first element. Without a pool it is ReLUGrad through the strided
// values.
func TestConvUnpoolIsPoolThenReLUBackward(t *testing.T) {
	rng := NewRNG(63)
	for _, relu := range []bool{false, true} {
		for trial := 0; trial < 80; trial++ {
			planes, h, w := 1+rng.Intn(3), 2+rng.Intn(6), 2+rng.Intn(36)
			if trial == 0 {
				h, w = 2, 2
			}
			oh, ow := h/2, w/2
			src := make([]float32, planes*h*w)
			fillSpecial(rng, src)
			if trial%4 == 0 { // whole planes nobody wins
				for i := range src[:h*w] {
					src[i] = float32(math.NaN())
				}
			}
			y := make([]float32, planes*h*w)
			ConvStore(y, src, nil, planes, h*w, h*w, h, w, w, w, relu, false)
			pooled, idx := make([]float32, planes*oh*ow), make([]int32, planes*oh*ow)
			for p := 0; p < planes; p++ {
				for r := 0; r < oh; r++ {
					at := (p*oh + r) * ow
					MaxPool2x2Argmax(pooled[at:at+ow], idx[at:at+ow], y[(p*h+2*r)*w:][:2*ow], y[(p*h+2*r+1)*w:][:2*ow], 2*r*w, w)
				}
			}
			vPitch := ow + rng.Intn(3)
			vPlane := oh*vPitch + rng.Intn(5)
			v := make([]float32, planes*vPlane)
			for p := 0; p < planes; p++ {
				for r := 0; r < oh; r++ {
					copy(v[p*vPlane+r*vPitch:][:ow], pooled[(p*oh+r)*ow:][:ow])
				}
			}
			g := make([]float32, planes*oh*ow)
			fillSpecial(rng, g)
			want := make([]float32, planes*h*w)
			for p := 0; p < planes; p++ {
				for i, at := range idx[p*oh*ow : (p+1)*oh*ow] {
					want[p*h*w+int(at)] += g[p*oh*ow+i]
				}
			}
			if relu {
				ReLUGrad(want, y, want)
			}
			withISAs(t, func(isa string) {
				got := make([]float32, len(want)+1)
				fillSpecial(rng, got)
				got[len(want)] = 3.25
				ConvUnpool(got, g, idx, v, planes, h, w, vPlane, vPitch, relu)
				tag := fmt.Sprintf("%s relu %v planes %d %dx%d", isa, relu, planes, h, w)
				requireSameBits(t, tag, got[:len(want)], want)
				if got[len(want)] != 3.25 {
					t.Fatalf("%s: wrote past dy", tag)
				}
			})
		}
	}
	// No pool: the ReLU's gate through strided values.
	const planes, h, w, pitch = 2, 3, 5, 7
	g, v := make([]float32, planes*h*w), make([]float32, planes*h*pitch)
	fillSpecial(rng, g)
	fillSpecial(rng, v)
	compact := make([]float32, planes*h*w)
	for p := 0; p < planes; p++ {
		for r := 0; r < h; r++ {
			copy(compact[(p*h+r)*w:][:w], v[(p*h+r)*pitch:][:w])
		}
	}
	want := make([]float32, planes*h*w)
	ReLUGrad(want, compact, g)
	withISAs(t, func(isa string) {
		got := make([]float32, planes*h*w)
		ConvUnpool(got, g, nil, v, planes, h, w, h*pitch, pitch, true)
		requireSameBits(t, isa+" relu, no pool", got, want)
	})
}

// TestConvAdjointIsGemmThenCol2im is the adjoint's contract at its one
// use: under every kernel table, ConvAdjoint adds into an input gradient
// exactly what the lowered path's Wᵀ·dy GEMM and Col2imFrom add — widths
// 1 to 33, pads 0 to 2, kernels 1, 3 and 5, input channel counts through
// the panel tails, output channel counts from 1, one to twenty samples
// side by side (so small planes run several samples a call, with a short
// last group), weights with exact zeros and with ±∞ and NaN on the border
// taps, whose padded reads would turn +0 into NaN, and −0 in dy, onto an
// input gradient that already holds values.
func TestConvAdjointIsGemmThenCol2im(t *testing.T) {
	rng := NewRNG(3636)
	// The NaN is the one ∞·0 makes, as in fillFinite: which of two NaNs
	// an add keeps is the GEMM tile's business, not the adjoint's.
	specialW := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), math.Float32frombits(0xffc00000)}
	negZero := float32(math.Copysign(0, -1))
	for w := 1; w <= 33; w++ {
		for _, kk := range []int{1, 3, 5} {
			for pad := 0; pad <= 2; pad++ {
				if kk > w+2*pad {
					continue
				}
				c, f := 1+rng.Intn(11), 1+rng.Intn(9)
				h := max(kk-2*pad, 1) + rng.Intn(6)
				if rng.Intn(2) == 0 {
					h = w // square: "same" padding runs whole windows
				}
				oh, ow := ConvOut(h, kk, 1, pad), ConvOut(w, kk, 1, pad)
				k, cols, hw := c*kk*kk, oh*ow, h*w
				m := 1 + rng.Intn(min(20, max(1024/cols, 2)))
				wt := make([]float32, f*k)
				fillFinite(rng, wt)
				fillSparse(rng, wt[:len(wt)/3], 3)
				for o := 0; o < f; o++ { // specials on the corner taps, which reach the padding
					if rng.Intn(2) == 0 {
						wt[o*k+rng.Intn(c)*kk*kk] = specialW[rng.Intn(3)]
						wt[o*k+rng.Intn(c)*kk*kk+kk*kk-1] = specialW[rng.Intn(3)]
					}
				}
				dy := make([]float32, f*m*cols) // channel-major: the lowered GEMM's operand as it is
				fillFinite(rng, dy)
				for i := range dy {
					if rng.Intn(7) == 0 {
						dy[i] = negZero
					}
				}
				base := make([]float32, c*m*hw) // channel-major
				fillFinite(rng, base)
				for i := range base {
					if rng.Intn(5) == 0 {
						base[i] = 0
					}
				}
				col := make([]float32, k*m*cols)
				Gemm(true, false, k, m*cols, f, 1, wt, dy, 0, col)
				want := append([]float32(nil), base...)
				img := make([]float32, c*hw)
				for s := 0; s < m; s++ {
					for ch := 0; ch < c; ch++ {
						copy(img[ch*hw:][:hw], want[(ch*m+s)*hw:][:hw])
					}
					Col2imFrom(col, m*cols, s*cols, c, h, w, kk, kk, 1, pad, img)
					for ch := 0; ch < c; ch++ {
						copy(want[(ch*m+s)*hw:][:hw], img[ch*hw:][:hw])
					}
				}
				withISAs(t, func(isa string) {
					got := append([]float32(nil), base...)
					ConvAdjoint(got, c, h, w, wt, f, kk, kk, 1, pad, dy, m)
					requireSameBits(t, fmt.Sprintf("%s c %d f %d k %d pad %d %dx%d m %d", isa, c, f, kk, pad, h, w, m), got, want)
				})
			}
		}
	}
}

// TestConvAdjKernelsBitwiseAcrossISAs holds every ISA body of the adjoint
// tile to the Go body on one call: every panel height, spans around each
// vector width and tile up to AdjointRun, k from 1 to 40, A with zeros and
// infinities against B with infinities and zeros (fillFinite: one NaN
// payload), and masks of rows and of groups of
// rows with lanes dropped between them. Every lane the mask drops, and
// everything of c between the panel's rows and after its end, must come
// back unchanged.
func TestConvAdjKernelsBitwiseAcrossISAs(t *testing.T) {
	rng := NewRNG(77)
	sc := new(adjScratch)
	for mr := 1; mr <= gemmMR; mr++ {
		for _, n := range []int{1, 2, 3, 4, 8, 15, 16, 17, 31, 32, 33, 64, 100, AdjointRun} {
			for _, k := range []int{1, 2, 9, 16, 40} {
				pitch := n + rng.Intn(4)
				rows, groups := 1+rng.Intn(6), 1+rng.Intn(4)
				period := (rows-1)*pitch + n + rng.Intn(4)
				for groups > 1 && (groups-1)*period+(rows-1)*pitch+n > AdjointRun {
					groups--
				}
				for rows > 1 && (rows-1)*pitch+n > AdjointRun {
					rows--
				}
				span := (groups-1)*period + (rows-1)*pitch + n
				ars := 1 + rng.Intn(9)
				aps := ars*mr + rng.Intn(3)
				a := make([]float32, (mr-1)*ars+(k-1)*aps+1)
				fillFinite(rng, a)
				fillSparse(rng, a[:len(a)/2], 3)
				ldb := span + rng.Intn(5)
				b := make([]float32, (k-1)*ldb+span)
				fillFinite(rng, b)
				ldc := span + rng.Intn(5)
				c := make([]float32, (mr-1)*ldc+span+1)
				fillFinite(rng, c)
				laneMask(sc.keep[0][:], groups, rows, n, pitch, period)
				want := append([]float32(nil), c...)
				convAdjGeneric(mr, k, a, ars, aps, b, ldb, span, want, ldc, sc.keep[0][:], sc.t[:])
				withISAs(t, func(isa string) {
					got := append([]float32(nil), c...)
					convAdj(mr, k, a, ars, aps, b, ldb, span, got, ldc, sc.keep[0][:], sc.t[:])
					requireSameBits(t, fmt.Sprintf("convAdj[%s] mr %d n %d k %d rows %d groups %d", isa, mr, n, k, rows, groups), got, want)
				})
			}
		}
	}
}

// TestConvKernelsValidateOperands: the assembly bodies read and write what
// the geometry says, so every operand is checked before one runs.
func TestConvKernelsValidateOperands(t *testing.T) {
	a, b, c := make([]float32, 2*9), make([]float32, 40), make([]float32, 2*16)
	off := []int{0, 1, 2, 10, 11, 12, 20, 21, 22}
	ConvTile(2, 16, a, 9, b, off, nil, c, 16) // in bounds
	src, dst := make([]float32, 2*4*8), make([]float32, 2*2*4)
	ConvStore(dst, src, nil, 2, 8, 32, 2, 4, 8, 4, true, true) // both exactly long enough
	dw := make([]float32, 2*9)
	taps := []int{0, 1, 2, 10, 11, 12, 16, 17, 18}
	WeightGrad(2, 0, 16, 1, c, 16, 0, b, 0, 0, taps, 4, 6, dw, 9)         // tap 18's rows end at 18+3·6+4 = 40
	WeightGrad(2, 0, 4, 2, c, 4, 16, b, 0, 20, []int{0, 16}, 4, 6, dw, 9) // the second image's tap 16 ends at 20+16+4
	WeightGrad(2, 2, 16, 2, c, 16, 0, b, 20, 4, nil, 0, 0, dw, 9)         // the second sample's window ends at 4+20+16
	idx := make([]int32, 2*2*4)
	ConvStoreArgmax(dst, idx, src, nil, 2, 8, 8, 32, 2, 4, 8, 4, 0, 8, true) // the same store, winners exactly long enough
	ConvUnpool(src, dst, idx, dst, 2, 4, 8, 8, 4, true)                      // its backward: dy is the 2×4×8 src
	wt, dyA := make([]float32, 2*18), make([]float32, 2*9)
	ConvAdjoint(dw, 2, 3, 3, wt, 2, 3, 3, 1, 1, dyA, 1) // 2×3×3 in, 2 filters of 3×3 at pad 1
	for name, f := range map[string]func(){
		"tile offset past the image": func() { ConvTile(2, 16, a, 9, b, []int{0, 25}, nil, c, 16) },
		"tile negative offset":       func() { ConvTile(2, 16, a, 9, b, []int{-1}, nil, c, 16) },
		"tile short a":               func() { ConvTile(3, 16, a, 9, b, off, nil, make([]float32, 48), 16) },
		"tile short c":               func() { ConvTile(2, 16, a, 9, b, off, nil, c[:31], 16) },
		"tile lda under k":           func() { ConvTile(1, 16, a, 8, b, off, nil, c, 16) },
		"dot offset past the image":  func() { WeightGrad(2, 0, 16, 1, c, 16, 0, b, 0, 0, []int{0, 19}, 4, 6, dw, 9) },
		"dot negative offset":        func() { WeightGrad(2, 0, 16, 1, c, 16, 0, b, 0, 0, []int{-1}, 4, 6, dw, 9) },
		"dot pitch under width":      func() { WeightGrad(2, 0, 16, 1, c, 16, 0, b, 0, 0, taps, 4, 3, dw, 9) },
		"dot short a":                func() { WeightGrad(3, 0, 16, 1, c, 16, 0, b, 0, 0, taps, 4, 6, dw, 9) },
		"dot short c":                func() { WeightGrad(2, 0, 16, 1, c, 16, 0, b, 0, 0, taps, 4, 6, dw[:17], 9) },
		"dot second image short":     func() { WeightGrad(2, 0, 4, 2, c, 4, 16, b, 0, 21, []int{0, 16}, 4, 6, dw, 9) },
		"dot second sample short a":  func() { WeightGrad(2, 0, 4, 2, c, 4, 25, b, 0, 20, []int{0, 16}, 4, 6, dw, 9) },
		"dot window past the end":    func() { WeightGrad(2, 2, 16, 2, c, 16, 0, b, 20, 5, nil, 0, 0, dw, 9) },
		"dot window rows under k":    func() { WeightGrad(2, 2, 16, 1, c, 16, 0, b, 15, 0, nil, 0, 0, dw, 9) },
		"store short src":            func() { ConvStore(dst, src[:63], nil, 2, 8, 32, 2, 4, 8, 4, true, true) },
		"store short dst":            func() { ConvStore(dst[:15], src, nil, 2, 8, 32, 2, 4, 8, 4, true, true) },
		"store short bias":           func() { ConvStore(dst, src, []float32{1}, 2, 8, 32, 2, 4, 8, 4, true, true) },
		"store pitch under width":    func() { ConvStore(dst, src, nil, 2, 8, 32, 2, 4, 7, 4, true, true) },
		"store negative plane":       func() { ConvStore(dst, src, nil, 2, -8, 32, 2, 4, 8, 4, true, true) },
		"argmax short idx":           func() { ConvStoreArgmax(dst, idx[:15], src, nil, 2, 8, 8, 32, 2, 4, 8, 4, 0, 8, true) },
		"argmax short src":           func() { ConvStoreArgmax(dst, idx, src[:63], nil, 2, 8, 8, 32, 2, 4, 8, 4, 0, 8, true) },
		"argmax plane under width":   func() { ConvStoreArgmax(dst, idx, src, nil, 2, 8, 8, 32, 2, 4, 8, 4, 0, 7, true) },
		"argmax offsets past int32":  func() { ConvStoreArgmax(dst, idx, src, nil, 2, 8, 8, 32, 2, 4, 8, 4, 1<<31-8, 8, true) },
		"unpool short dy":            func() { ConvUnpool(make([]float32, 63), dst, idx, dst, 2, 4, 8, 8, 4, true) },
		"unpool short winners":       func() { ConvUnpool(src, dst, idx[:15], dst, 2, 4, 8, 8, 4, true) },
		"unpool short values":        func() { ConvUnpool(src, dst, idx, dst[:15], 2, 4, 8, 8, 4, true) },
		"unpool pitch under width":   func() { ConvUnpool(src, dst, idx, dst, 2, 4, 8, 8, 3, true) },
		"unpool plane under 2×2":     func() { ConvUnpool(src, dst, idx, dst, 2, 1, 8, 8, 4, true) },
		"unpool nothing folded":      func() { ConvUnpool(src, dst, nil, dst, 2, 4, 8, 32, 8, false) },
		"adjoint short dx":           func() { ConvAdjoint(dw[:17], 2, 3, 3, wt, 2, 3, 3, 1, 1, dyA, 1) },
		"adjoint short weights":      func() { ConvAdjoint(dw, 2, 3, 3, wt[:35], 2, 3, 3, 1, 1, dyA, 1) },
		"adjoint short dy":           func() { ConvAdjoint(dw, 2, 3, 3, wt, 2, 3, 3, 1, 1, dyA[:17], 1) },
		"adjoint kernel past padded": func() { ConvAdjoint(dw, 2, 3, 3, wt, 2, 5, 5, 1, 0, dyA, 1) },
		"adjoint negative pad":       func() { ConvAdjoint(dw, 2, 3, 3, wt, 2, 3, 3, 1, -1, dyA, 1) },
		"adjoint two samples short":  func() { ConvAdjoint(dw, 2, 3, 3, wt, 2, 3, 3, 1, 1, dyA, 2) },
		"adjoint no samples":         func() { ConvAdjoint(dw, 2, 3, 3, wt, 2, 3, 3, 1, 1, dyA, 0) },
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

// FuzzConvTileBitwise holds every ISA body of the compact-column tile
// (ConvTile with a column table) and of the strided adjoint to the
// definition. The tile runs 1 to 20 rows over k taps at random image
// offsets, its columns the compact output indices of 1 to 5 samples of
// oh×ow planes, ow from 1 to 33, read at a pitch of ow or more: against
// the scalar table. The adjoint runs a stride-1 or stride-2 convolution
// whose output is about ow wide, over 1 to 5 samples side by side: against
// the Wᵀ·dy GEMM and col2im, split into the phase planes ConvAdjoint
// writes, onto a gradient that already holds values. Weights, images and
// gradients carry ±0, ±Inf and NaN.
func FuzzConvTileBitwise(f *testing.F) {
	for _, s := range [][7]uint8{
		{7, 143, 3, 1, 3, 1, 1},  // enc_conv3: 4×4 compact, pitch 5, four samples, stride 2
		{7, 39, 7, 1, 1, 1, 2},   // enc_conv2: 8×8, pitch 9
		{3, 39, 15, 1, 0, 1, 3},  // enc_conv1: 16×16, pitch 17
		{7, 63, 3, 2, 3, 0, 4},   // enc_conv4 and the heads: 4×4 at pitch 6, stride 1
		{0, 0, 0, 0, 0, 0, 5},    // one of everything
		{19, 17, 32, 4, 4, 1, 6}, // ow 33, five samples
		{5, 9, 4, 3, 2, 1, 7},    // odd widths at stride 2
	} {
		f.Add(s[0], s[1], s[2], s[3], s[4], s[5], s[6])
	}
	f.Fuzz(func(t *testing.T, mb, kb, owb, padb, sb, strideb, seed uint8) {
		rng := NewRNG(uint64(seed) + 1)
		m, k, ow, samples, stride := 1+int(mb)%20, 1+int(kb)%40, 1+int(owb)%33, 1+int(sb)%5, 1+int(strideb)%2
		defer SetKernels("auto")

		// The tile.
		oh := 1 + rng.Intn(4)
		pitch := ow + int(padb)%5
		span := (oh-1)*pitch + ow
		img := span + rng.Intn(3*pitch+1)
		b := make([]float32, (samples-1)*img+img)
		idx := make([]int32, 0, samples*oh*ow)
		for s := 0; s < samples; s++ {
			for p := 0; p < oh*ow; p++ {
				idx = append(idx, int32(s*img+p/ow*pitch+p%ow))
			}
		}
		off := make([]int, k)
		for p := range off {
			off[p] = rng.Intn(img - span + 1)
		}
		n := len(idx)
		lda, ldc := k+rng.Intn(3), n+rng.Intn(3)
		a := make([]float32, (m-1)*lda+k)
		fillMadeNaN(rng, a)
		fillSparse(rng, a, 3)
		fillMadeNaN(rng, b)
		start := make([]float32, (m-1)*ldc+n) // what the tile overwrites, and the gaps it leaves
		fillMadeNaN(rng, start)
		SetKernels("scalar")
		want := append([]float32(nil), start...)
		ConvTile(m, n, a, lda, b, off, idx, want, ldc)
		withISAs(t, func(isa string) {
			got := append([]float32(nil), start...)
			ConvTile(m, n, a, lda, b, off, idx, got, ldc)
			requireSameBits(t, fmt.Sprintf("ConvTile[%s] m=%d k=%d ow=%d pitch=%d samples=%d", isa, m, k, ow, pitch, samples), got, want)
		})

		// The adjoint.
		kk := []int{1, 3, 4, 5}[rng.Intn(4)]
		pad := int(padb) % 3
		w := max(ow*stride-rng.Intn(stride), kk-2*pad, 1)
		h := max(1+rng.Intn(9), kk-2*pad)
		c, outC := 1+rng.Intn(9), 1+rng.Intn(9)
		oh, oww := ConvOut(h, kk, stride, pad), ConvOut(w, kk, stride, pad)
		if oh < 1 || oww < 1 {
			return
		}
		kc, cols, hw := c*kk*kk, oh*oww, h*w
		ph, pw := (h+stride-1)/stride, (w+stride-1)/stride
		wt := make([]float32, outC*kc)
		fillMadeNaN(rng, wt)
		fillSparse(rng, wt, 3)
		dy := make([]float32, outC*samples*cols) // channel-major, samples side by side
		fillMadeNaN(rng, dy)
		nchw := make([]float32, samples*c*hw)
		fillMadeNaN(rng, nchw)
		phase := func(i, ch, y, x int) int {
			return ((ch*stride*stride+y%stride*stride+x%stride)*samples+i)*ph*pw + y/stride*pw + x/stride
		}
		base := make([]float32, c*stride*stride*samples*ph*pw)
		for i := 0; i < samples; i++ {
			for ch := 0; ch < c; ch++ {
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						base[phase(i, ch, y, x)] = nchw[(i*c+ch)*hw+y*w+x]
					}
				}
			}
		}
		col := make([]float32, kc*samples*cols)
		Gemm(true, false, kc, samples*cols, outC, 1, wt, dy, 0, col)
		for i := 0; i < samples; i++ {
			refCol2imFrom(col, samples*cols, i*cols, c, h, w, kk, kk, stride, pad, nchw[i*c*hw:][:c*hw])
		}
		wantAdj := append([]float32(nil), base...)
		for i := 0; i < samples; i++ {
			for ch := 0; ch < c; ch++ {
				for y := 0; y < h; y++ {
					for x := 0; x < w; x++ {
						wantAdj[phase(i, ch, y, x)] = nchw[(i*c+ch)*hw+y*w+x]
					}
				}
			}
		}
		withISAs(t, func(isa string) {
			got := append([]float32(nil), base...)
			ConvAdjoint(got, c, h, w, wt, outC, kk, kk, stride, pad, dy, samples)
			requireSameBits(t, fmt.Sprintf("ConvAdjoint[%s] c=%d outC=%d k=%d s=%d p=%d %dx%d m=%d", isa, c, outC, kk, stride, pad, h, w, samples), got, wantAdj)
		})
	})
}

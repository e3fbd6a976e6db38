package tensor

import (
	"math"
	"testing"
)

// TestConvS8AcrossISAs holds the micro-kernel to a plain dot product over
// unpacked weights, and every vector body to the scalar one bit for bit:
// every group count up to 40, channel counts on both sides of the 16-lane
// block, pixel runs covering the 8-, 4- and 1-pixel paths and their
// combinations, one and three kernel rows, and saturated operands over
// K = 1152, which an implementation that narrows to 16 bits gets wrong.
func TestConvS8AcrossISAs(t *testing.T) {
	rng := NewRNG(19)
	type tcase struct {
		m, rows, k4, npix, ps int
		extreme               bool
	}
	var cases []tcase
	for k4 := 1; k4 <= 40; k4++ {
		cases = append(cases, tcase{m: []int{1, 2, 5, 8, 16, 17, 128}[k4%7], rows: 1 + 2*(k4%2), k4: k4, npix: 1 + k4%9, ps: 4 * (1 + k4%3)})
	}
	for npix := 1; npix <= 21; npix++ {
		cases = append(cases, tcase{m: 16, rows: 3, k4: 3, npix: npix, ps: 8})
	}
	cases = append(cases,
		tcase{m: 17, rows: 1, k4: 288, npix: 9, ps: 4, extreme: true},
		tcase{m: 2, rows: 3, k4: 96, npix: 5, ps: 384, extreme: true},
	)
	for _, tc := range cases {
		k := tc.rows * tc.k4 * 4
		rowStride := tc.npix*tc.ps + 4*tc.k4 + 8
		a := make([]int8, tc.m*k)
		img := make([]uint8, (tc.rows-1)*rowStride+(tc.npix-1)*tc.ps+4*tc.k4)
		for i := range a {
			a[i] = int8(rng.Intn(256) - 128)
			if tc.extreme { // 255·127 in even channels, 255·−128 in odd ones
				a[i] = int8(127 - 255*(i/k%2))
			}
		}
		for i := range img {
			img[i] = uint8(rng.Intn(256))
			if tc.extreme {
				img[i] = 255
			}
		}
		w := make([]int8, S8PackedLen(tc.m, k))
		PackS8(w, a, tc.m, k)
		panel := tc.rows * tc.k4 * 64
		for i0 := 0; i0 < tc.m; i0 += S8Lanes {
			want := make([]int32, tc.npix*S8Lanes)
			for p := 0; p < tc.npix; p++ {
				for l := 0; l < min(S8Lanes, tc.m-i0); l++ {
					var s int32
					for r := 0; r < tc.rows; r++ {
						for j := 0; j < 4*tc.k4; j++ {
							s += int32(a[(i0+l)*k+r*4*tc.k4+j]) * int32(img[r*rowStride+p*tc.ps+j])
						}
					}
					want[p*S8Lanes+l] = s
				}
			}
			withISAs(t, func(isa string) {
				got := make([]int32, len(want))
				for i := range got {
					got[i] = -1
				}
				ConvS8(got, img, w[i0/S8Lanes*panel:], tc.rows, tc.k4, rowStride, tc.ps)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%+v isa=%s block %d: acc[%d] = %d, want %d", tc, isa, i0/S8Lanes, i, got[i], want[i])
					}
				}
			})
		}
	}
}

// s8TestBlock draws one block of requantize constants.
func s8TestBlock(rng *RNG) *S8Block {
	b := &S8Block{}
	for l := range b.Mult {
		b.Mult[l] = float32(0.001 + 0.01*rng.Float64())
		b.Bias[l] = float32(rng.Norm())
		b.Corr[l] = int32(rng.Intn(4001) - 2000)
	}
	return b
}

// TestRequantAcrossISAs pins both epilogues to the scalar body: every
// channel count and byte count, pixel runs with tails, both destination
// layouts, and bytes that nothing may touch left alone.
func TestRequantAcrossISAs(t *testing.T) {
	rng := NewRNG(29)
	for _, npix := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 35} {
		acc := make([]int32, npix*S8Lanes)
		for i := range acc {
			acc[i] = int32(rng.Intn(200001) - 100000)
		}
		b := s8TestBlock(rng)
		for nch := 1; nch <= S8Lanes; nch++ {
			for _, layout := range [][2]int{{1, npix + 3}, {nch + 2, 1}} {
				pixStride, chanStride := layout[0], layout[1]
				size := (npix-1)*pixStride + (nch-1)*chanStride + 1
				want := make([]float32, size+2)
				for i := range want {
					want[i] = -7
				}
				requantF32Generic(want, acc, b, nch, pixStride, chanStride)
				withISAs(t, func(isa string) {
					got := make([]float32, len(want))
					for i := range got {
						got[i] = -7
					}
					RequantF32(got[:size], acc, b, nch, pixStride, chanStride)
					if !bitsEqual(got, want) {
						t.Fatalf("RequantF32 isa=%s npix=%d nch=%d strides=%v: %v, want %v", isa, npix, nch, layout, got, want)
					}
				})
			}
		}
		for _, nbytes := range []int{4, 8, 12, 16} {
			for _, lo := range []float64{0, 128} {
				pixStride := nbytes + 4*(npix%3)
				inv := 1 / (0.02 + 0.05*rng.Float64())
				size := (npix-1)*pixStride + nbytes
				want := make([]uint8, size+3)
				requantU8Generic(want, acc, b, inv, lo, nbytes, pixStride)
				withISAs(t, func(isa string) {
					got := make([]uint8, len(want))
					RequantU8(got[:size], acc, b, inv, lo, nbytes, pixStride)
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("RequantU8 isa=%s npix=%d nbytes=%d lo=%v: dst[%d] = %d, want %d", isa, npix, nbytes, lo, i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

// TestRequantU8RoundingBoundaries walks the epilogue across every byte's
// rounding boundary: with unit scales and a zero accumulator, bias q−128.5
// puts v·inv + 128.5 exactly on q, which must round to q, and the float
// just below it must give q−1. Both clamps and both
// lower bounds are crossed on the way, and non-finite values map as the
// quantizer says: NaN to the zero-point, infinities to the ends.
func TestRequantU8RoundingBoundaries(t *testing.T) {
	negInf := float32(math.Inf(-1))
	for _, lo := range []float64{0, 128} {
		for q0 := -2; q0 <= 258; q0 += S8Lanes {
			b := &S8Block{}
			acc := make([]int32, 2*S8Lanes)
			want := make([]uint8, 2*S8Lanes)
			for l := 0; l < S8Lanes; l++ {
				q := q0 + l
				b.Mult[l] = 1
				want[l] = uint8(min(max(q, int(lo)), 255))
				want[S8Lanes+l] = uint8(min(max(q-1, int(lo)), 255))
			}
			withISAs(t, func(isa string) {
				got := make([]uint8, 2*S8Lanes)
				for l := range b.Bias {
					b.Bias[l] = float32(q0+l) - 128.5
				}
				RequantU8(got, acc[:S8Lanes], b, 1, lo, S8Lanes, S8Lanes)
				for l := range b.Bias {
					b.Bias[l] = math.Nextafter32(b.Bias[l], negInf)
				}
				RequantU8(got[S8Lanes:], acc[S8Lanes:], b, 1, lo, S8Lanes, S8Lanes)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("isa=%s lo=%v q0=%d: byte %d = %d, want %d", isa, lo, q0, i, got[i], want[i])
					}
				}
			})
		}
		b := &S8Block{}
		inf := -negInf
		acc := make([]int32, S8Lanes)
		for l := range b.Mult {
			b.Mult[l] = 1
			b.Bias[l] = []float32{float32(math.NaN()), inf, -inf, 3e38}[l%4]
		}
		want := []uint8{128, 255, uint8(lo), 255}
		withISAs(t, func(isa string) {
			got := make([]uint8, S8Lanes)
			RequantU8(got, acc, b, 1, lo, S8Lanes, S8Lanes)
			for i := range got {
				if got[i] != want[i%4] {
					t.Fatalf("isa=%s lo=%v non-finite lane %d = %d, want %d", isa, lo, i, got[i], want[i%4])
				}
			}
		})
	}
}

// TestRequantPoolU8AcrossISAs pins the pooled epilogue's vector bodies to
// the scalar one, and the scalar one to "max of the window, then
// RequantU8": ties, accumulators at MinInt32 and MaxInt32 (where acc − Corr
// wraps, identically everywhere), multipliers of 0, tiny, normal and +Inf
// (the NaN at acc = Corr included), every byte count and both lower
// bounds, pixel runs with vector tails, and bytes nothing may touch left
// alone.
func TestRequantPoolU8AcrossISAs(t *testing.T) {
	rng := NewRNG(31)
	mults := []float32{0, 1e-30, 0.004, float32(math.Inf(1))}
	for _, npix := range []int{1, 2, 3, 5, 8, 9, 16} {
		r0, r1 := make([]int32, 2*npix*S8Lanes), make([]int32, 2*npix*S8Lanes)
		for i := range r0 {
			switch rng.Intn(8) {
			case 0:
				r0[i], r1[i] = math.MinInt32, math.MaxInt32
			case 1:
				r0[i], r1[i] = 0, 0 // ties at acc = Corr when Corr is 0
			case 2:
				r0[i], r1[i] = 7, 7
			default:
				r0[i], r1[i] = int32(rng.Intn(200001)-100000), int32(rng.Intn(200001)-100000)
			}
		}
		for mi, mult := range mults {
			b := s8TestBlock(rng)
			for l := range b.Mult {
				b.Mult[l] = mult
				if l%3 == 0 {
					b.Corr[l] = 0
				}
			}
			for _, nbytes := range []int{4, 8, 12, 16} {
				for _, lo := range []float64{0, 128} {
					pixStride := nbytes + 4*(npix%3)
					inv := 1 / (0.02 + 0.05*rng.Float64())
					size := (npix-1)*pixStride + nbytes
					want := make([]uint8, size+3)
					requantPoolU8Generic(want, r0, r1, b, inv, lo, nbytes, pixStride)
					pooled := make([]int32, npix*S8Lanes)
					for p := 0; p < npix; p++ {
						for l := 0; l < S8Lanes; l++ {
							a, c := r0[2*p*S8Lanes+l:], r1[2*p*S8Lanes+l:]
							pooled[p*S8Lanes+l] = max(a[0], a[S8Lanes], c[0], c[S8Lanes])
						}
					}
					ref := make([]uint8, len(want))
					requantU8Generic(ref, pooled, b, inv, lo, nbytes, pixStride)
					for i := range ref {
						if ref[i] != want[i] {
							t.Fatalf("scalar pooled epilogue npix=%d mult=%g nbytes=%d lo=%v: dst[%d] = %d, max-then-requantize %d", npix, mult, nbytes, lo, i, want[i], ref[i])
						}
					}
					withISAs(t, func(isa string) {
						got := make([]uint8, len(want))
						RequantPoolU8(got[:size], r0, r1, b, inv, lo, nbytes, pixStride)
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("RequantPoolU8 isa=%s npix=%d mult#%d nbytes=%d lo=%v: dst[%d] = %d, want %d", isa, npix, mi, nbytes, lo, i, got[i], want[i])
							}
						}
					})
				}
			}
		}
	}
}

// quantizeSpecials are values on and beside the quantizer's rounding
// boundaries, past both clamps, and non-finite.
var quantizeSpecials = []float32{0, float32(math.Copysign(0, -1)), 0.5, -0.5, math.Nextafter32(0.5, 0), 1.5, 126.5, 127, 127.5, -128.5, -129, 1e30, -1e30,
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), math.MaxFloat32}

func quantizeTestData(rng *RNG, n int) []float32 {
	src := make([]float32, n)
	for i := range src {
		src[i] = float32(100 * rng.Norm())
		if rng.Intn(3) == 0 {
			src[i] = quantizeSpecials[rng.Intn(len(quantizeSpecials))]
		}
	}
	return src
}

// TestQuantizeU8AcrossISAs pins the flat quantizer's vector bodies to the
// scalar one over every length up to 40 (vector blocks and tails).
func TestQuantizeU8AcrossISAs(t *testing.T) {
	rng := NewRNG(37)
	for n := 1; n <= 40; n++ {
		src := quantizeTestData(rng, n)
		for _, inv := range []float64{1, 1 / 0.37} {
			want := make([]uint8, n+2)
			quantizeU8Generic(want, src, inv)
			withISAs(t, func(isa string) {
				got := make([]uint8, len(want))
				QuantizeU8(got[:n], src, inv)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("isa=%s n=%d: dst[%d] = %d, want %d", isa, n, i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestQuantizePlanesU8AcrossISAs pins the interleaving quantizer's vector
// bodies to the scalar one: one to nine planes (four-byte pixels and wider
// ones, whole and part-filled groups), row lengths covering vector blocks
// and masked tails, a row pitch with bytes between rows that nothing may
// touch, and pad channels written at the zero-point.
func TestQuantizePlanesU8AcrossISAs(t *testing.T) {
	rng := NewRNG(53)
	for c := 1; c <= 9; c++ {
		c4 := (c + 3) &^ 3
		for _, w := range []int{1, 3, 7, 8, 9, 15, 16, 17, 33} {
			h := 1 + w%3
			src := quantizeTestData(rng, c*h*w)
			pitch := w*c4 + 5
			size := (h-1)*pitch + w*c4
			want := make([]uint8, size+3)
			for i := range want {
				want[i] = 7
			}
			quantizePlanesU8Generic(want, src, c, h, w, pitch, c4, 1/0.37)
			withISAs(t, func(isa string) {
				got := make([]uint8, len(want))
				for i := range got {
					got[i] = 7
				}
				QuantizePlanesU8(got[:size], src, c, h, w, pitch, c4, 1/0.37)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("isa=%s c=%d h=%d w=%d: dst[%d] = %d, want %d", isa, c, h, w, i, got[i], want[i])
					}
				}
			})
		}
	}
}

package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// im2col and col2im lower one whole image into (out of) a dense patch
// matrix, the shape the known-value tests below are written in.
func im2col(img []float32, c, h, w, kh, kw, stride, pad int, col []float32) {
	Im2colInto(img, c, h, w, kh, kw, stride, pad, col, ConvOut(h, kh, stride, pad)*ConvOut(w, kw, stride, pad), 0)
}

func col2im(col []float32, c, h, w, kh, kw, stride, pad int, img []float32) {
	Col2imFrom(col, ConvOut(h, kh, stride, pad)*ConvOut(w, kw, stride, pad), 0, c, h, w, kh, kw, stride, pad, img)
}

func TestConvOut(t *testing.T) {
	cases := []struct{ in, k, s, p, want int }{
		{224, 3, 1, 1, 224}, // same-padding 3x3
		{224, 2, 2, 0, 112}, // 2x2 pool
		{768, 3, 2, 1, 384}, // strided downsample
		{7, 7, 1, 0, 1},     // global
		{5, 3, 2, 1, 3},
	}
	for _, c := range cases {
		if got := ConvOut(c.in, c.k, c.s, c.p); got != c.want {
			t.Errorf("ConvOut(%d,%d,%d,%d) = %d, want %d", c.in, c.k, c.s, c.p, got, c.want)
		}
	}
}

func TestIm2colIdentityKernel(t *testing.T) {
	// 1x1 kernel stride 1 no pad: col equals the image.
	img := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	col := make([]float32, 8)
	im2col(img, 2, 2, 2, 1, 1, 1, 0, col)
	for i := range img {
		if col[i] != img[i] {
			t.Fatalf("col[%d]=%v, want %v", i, col[i], img[i])
		}
	}
}

func TestIm2colKnownValues(t *testing.T) {
	// 1 channel 3x3 image, 2x2 kernel, stride 1, no pad → 2x2 output.
	img := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	col := make([]float32, 4*4)
	im2col(img, 1, 3, 3, 2, 2, 1, 0, col)
	want := []float32{
		1, 2, 4, 5, // tap (0,0)
		2, 3, 5, 6, // tap (0,1)
		4, 5, 7, 8, // tap (1,0)
		5, 6, 8, 9, // tap (1,1)
	}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("col[%d]=%v, want %v\n%v", i, col[i], want[i], col)
		}
	}
}

func TestIm2colPaddingZeros(t *testing.T) {
	img := []float32{1, 1, 1, 1} // 1ch 2x2
	oh := ConvOut(2, 3, 1, 1)
	col := make([]float32, 9*oh*oh)
	im2col(img, 1, 2, 2, 3, 3, 1, 1, col)
	// Tap (0,0) of output position (0,0) reads img[-1,-1] → 0.
	if col[0] != 0 {
		t.Fatalf("padded tap should be 0, got %v", col[0])
	}
	// Center tap (ky=1,kx=1) of output (0,0) reads img[0,0] = 1.
	if col[4*oh*oh] != 1 {
		t.Fatalf("center tap should be 1, got %v", col[4*oh*oh])
	}
}

// Property: col2im is the adjoint of im2col — ⟨im2col(x), y⟩ == ⟨x, col2im(y)⟩
// for all x, y. This single identity guarantees the convolution data-gradient
// (and therefore the deconvolution forward pass) is exactly consistent.
func TestCol2imAdjointProperty(t *testing.T) {
	f := func(seed uint32) bool {
		r := NewRNG(uint64(seed)*2654435761 + 1)
		c := 1 + r.Intn(3)
		h := 2 + r.Intn(5)
		w := 2 + r.Intn(5)
		k := 1 + r.Intn(3)
		stride := 1 + r.Intn(2)
		pad := r.Intn(2)
		if h+2*pad < k || w+2*pad < k {
			return true
		}
		oh := ConvOut(h, k, stride, pad)
		ow := ConvOut(w, k, stride, pad)
		x := make([]float32, c*h*w)
		for i := range x {
			x[i] = float32(r.Norm())
		}
		y := make([]float32, c*k*k*oh*ow)
		for i := range y {
			y[i] = float32(r.Norm())
		}
		cx := make([]float32, len(y))
		im2col(x, c, h, w, k, k, stride, pad, cx)
		xy := make([]float32, len(x))
		col2im(y, c, h, w, k, k, stride, pad, xy)
		lhs := dot64(cx, y)
		rhs := dot64(x, xy)
		return math.Abs(lhs-rhs) <= 1e-3*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCol2imAccumulates(t *testing.T) {
	// Overlapping 2x2 kernel stride 1 on 3x3: center pixel receives 4 taps.
	col := make([]float32, 4*4)
	for i := range col {
		col[i] = 1
	}
	img := make([]float32, 9)
	col2im(col, 1, 3, 3, 2, 2, 1, 0, img)
	if img[4] != 4 { // center of 3x3
		t.Fatalf("center should accumulate 4 contributions, got %v", img[4])
	}
	if img[0] != 1 {
		t.Fatalf("corner should receive 1 contribution, got %v", img[0])
	}
}

// refIm2colInto and refCol2imFrom are the lowering's definition: every
// (tap, output) pair visited in (ch, ky, kx, oy, ox) order with a bounds
// test per element.
func refIm2colInto(img []float32, c, h, w, kh, kw, stride, pad int, col []float32, rowStride, colOff int) {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	for r := 0; r < c*kh*kw; r++ {
		ch, ky, kx := r/(kh*kw), r/kw%kh, r%kw
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
				v := float32(0)
				if iy >= 0 && iy < h && ix >= 0 && ix < w {
					v = img[(ch*h+iy)*w+ix]
				}
				col[r*rowStride+colOff+oy*ow+ox] = v
			}
		}
	}
}

func refCol2imFrom(col []float32, rowStride, colOff, c, h, w, kh, kw, stride, pad int, img []float32) {
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	for r := 0; r < c*kh*kw; r++ {
		ch, ky, kx := r/(kh*kw), r/kw%kh, r%kw
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
				if iy >= 0 && iy < h && ix >= 0 && ix < w {
					img[(ch*h+iy)*w+ix] += col[r*rowStride+colOff+oy*ow+ox]
				}
			}
		}
	}
}

// TestLoweringBitwiseMatchesReferenceAcrossISAs draws geometries — kernels
// 1 to 5 (square or not), strides 1 to 3, pads 0 to 2, planes from the
// kernel's size up to 19 wide so rows span one to several vector blocks —
// and holds both lowerings bitwise to the per-element reference under every
// kernel table, writing into a window of a wider matrix whose other columns
// must not change. The image carries ±0, ±Inf, denormals and one kind of
// NaN; col2im starts from a cleared plane, where a −0 tap must land as +0.
func TestLoweringBitwiseMatchesReferenceAcrossISAs(t *testing.T) {
	withISAs(t, func(isa string) {
		rng := NewRNG(31)
		for trial := 0; trial < 300; trial++ {
			c := 1 + rng.Intn(3)
			kh, kw := 1+rng.Intn(5), 1+rng.Intn(5)
			stride, pad := 1+rng.Intn(3), rng.Intn(3)
			h, w := max(kh-2*pad, 1)+rng.Intn(9), max(kw-2*pad, 1)+rng.Intn(19)
			oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
			cols := oh * ow
			colOff := rng.Intn(3) * cols
			rowStride := colOff + cols + rng.Intn(5)
			tag := fmt.Sprintf("%s trial %d: %dx%dx%d k %dx%d s %d p %d", isa, trial, c, h, w, kh, kw, stride, pad)

			img := make([]float32, c*h*w)
			fillSpecial(rng, img)
			got := make([]float32, (c*kh*kw-1)*rowStride+colOff+cols)
			fillSpecial(rng, got)
			want := append([]float32(nil), got...)
			Im2colInto(img, c, h, w, kh, kw, stride, pad, got, rowStride, colOff)
			refIm2colInto(img, c, h, w, kh, kw, stride, pad, want, rowStride, colOff)
			requireSameBits(t, tag+" im2col", got, want)

			// Finite columns only: taps that overlap add up, and ∞−∞ would
			// make a second kind of NaN.
			col := got
			for i, v := range col {
				if v-v != 0 {
					col[i] = float32(math.Copysign(0, float64(v)))
				}
			}
			gotImg, wantImg := make([]float32, c*h*w), make([]float32, c*h*w)
			Col2imFrom(col, rowStride, colOff, c, h, w, kh, kw, stride, pad, gotImg)
			refCol2imFrom(col, rowStride, colOff, c, h, w, kh, kw, stride, pad, wantImg)
			requireSameBits(t, tag+" col2im", gotImg, wantImg)
		}
	})
}

// TestLoweringValidatesOperands: a bad call must panic before any kernel
// runs — an assembly body would read or write out of bounds silently — and
// the largest slices that are still too small must be the ones refused.
func TestLoweringValidatesOperands(t *testing.T) {
	type call struct {
		name                            string
		c, h, w, k, stride, pad         int
		dImg, dCol, dRowStride, dColOff int // added to exactly-enough operands
		ok                              bool
	}
	cases := []call{
		{name: "exact stride 1", c: 2, h: 5, w: 6, k: 3, stride: 1, pad: 1, ok: true},
		{name: "exact stride 2", c: 2, h: 5, w: 6, k: 3, stride: 2, pad: 1, ok: true},
		{name: "exact stride 3", c: 2, h: 7, w: 8, k: 3, stride: 3, pad: 1, ok: true},
		{name: "kernel as large as the padded plane", c: 1, h: 2, w: 2, k: 4, stride: 2, pad: 1, ok: true},
		{name: "short img", c: 2, h: 5, w: 6, k: 3, stride: 2, pad: 1, dImg: -1},
		{name: "short img, stride 3", c: 2, h: 7, w: 8, k: 3, stride: 3, pad: 1, dImg: -1},
		{name: "short col", c: 2, h: 5, w: 6, k: 3, stride: 2, pad: 1, dCol: -1},
		{name: "short col, stride 3", c: 2, h: 7, w: 8, k: 3, stride: 3, pad: 1, dCol: -1},
		{name: "short col, stride 1", c: 2, h: 5, w: 6, k: 3, stride: 1, pad: 1, dCol: -1},
		{name: "columns past the row", c: 2, h: 5, w: 6, k: 3, stride: 2, pad: 1, dRowStride: -1},
		{name: "columns past the row, offset", c: 2, h: 5, w: 6, k: 3, stride: 2, pad: 1, dColOff: 1},
		{name: "negative offset", c: 2, h: 5, w: 6, k: 3, stride: 2, pad: 1, dColOff: -100},
		{name: "kernel larger than the padded plane", c: 1, h: 2, w: 2, k: 5, stride: 2, pad: 1},
		{name: "stride 0", c: 1, h: 4, w: 4, k: 3, stride: 0, pad: 1},
		{name: "negative pad", c: 1, h: 4, w: 4, k: 3, stride: 1, pad: -1},
	}
	panics := func(f func()) (msg any) {
		defer func() { msg = recover() }()
		f()
		return nil
	}
	for _, tc := range cases {
		cols := 1
		if tc.stride > 0 && tc.k <= tc.h+2*tc.pad && tc.k <= tc.w+2*tc.pad {
			cols = ConvOut(tc.h, tc.k, tc.stride, tc.pad) * ConvOut(tc.w, tc.k, tc.stride, tc.pad)
		}
		colOff := 2*cols + tc.dColOff
		rowStride := 3*cols + tc.dRowStride
		img := make([]float32, tc.c*tc.h*tc.w+tc.dImg)
		col := make([]float32, (tc.c*tc.k*tc.k-1)*rowStride+max(colOff, 0)+cols+tc.dCol)
		for op, f := range map[string]func(){
			"Im2colInto": func() { Im2colInto(img, tc.c, tc.h, tc.w, tc.k, tc.k, tc.stride, tc.pad, col, rowStride, colOff) },
			"Col2imFrom": func() { Col2imFrom(col, rowStride, colOff, tc.c, tc.h, tc.w, tc.k, tc.k, tc.stride, tc.pad, img) },
		} {
			msg := panics(f)
			if tc.ok && msg != nil {
				t.Errorf("%s, %s: panicked: %v", tc.name, op, msg)
			}
			if s, _ := msg.(string); !tc.ok && !strings.HasPrefix(s, "tensor: ") {
				t.Errorf("%s, %s: want a tensor: panic before any kernel runs, got %v", tc.name, op, msg)
			}
		}
	}
}

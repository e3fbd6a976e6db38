package quant

import (
	"math"
	"testing"

	"deep15pf/internal/tensor"
)

// Table-driven edge cases for per-channel scales: the all-zero channel
// (scale must fall back to 1, not 0 or NaN), the single-outlier channel
// (its scale must not bleed into neighbours), and 1-element channels.
func TestScaleForChannelsEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		src  []float32
		cols int
		want []float32
	}{
		{
			name: "all-zero channel",
			src:  []float32{0, 0, 0, 2, -4, 1},
			cols: 3,
			want: []float32{1, 4.0 / 127},
		},
		{
			name: "single-outlier channel",
			src:  []float32{0.01, -0.02, 1000, 0.5, -0.25, 0.125},
			cols: 3,
			want: []float32{1000.0 / 127, 0.5 / 127},
		},
		{
			name: "one-element channels",
			src:  []float32{-3, 0, 7},
			cols: 1,
			want: []float32{3.0 / 127, 1, 7.0 / 127},
		},
		{
			name: "single channel equals ScaleFor",
			src:  []float32{1, -2, 3, -6.35},
			cols: 4,
			want: []float32{6.35 / 127},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := ScaleForChannels(tc.src, tc.cols)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d scales, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Errorf("scales[%d] = %g, want %g", i, got[i], tc.want[i])
				}
			}
			// Into variant must agree and not allocate.
			into := make([]float32, len(tc.want))
			if allocs := testing.AllocsPerRun(10, func() {
				ScaleForChannelsInto(into, tc.src, tc.cols)
			}); allocs > 0 {
				t.Errorf("ScaleForChannelsInto allocates (%v/run)", allocs)
			}
			for i := range into {
				if into[i] != got[i] {
					t.Errorf("Into scales[%d] = %g, want %g", i, into[i], got[i])
				}
			}
		})
	}
}

func TestQuantizeChannelsInto(t *testing.T) {
	// Two channels with magnitudes 100x apart: per-channel scales must
	// keep the small channel's resolution.
	src := []float32{100, -50, 25, 1, -0.5, 0.25}
	scales := ScaleForChannels(src, 3)
	dst := make([]int8, len(src))
	if allocs := testing.AllocsPerRun(10, func() {
		QuantizeChannelsInto(dst, src, scales, 3)
	}); allocs > 0 {
		t.Errorf("QuantizeChannelsInto allocates (%v/run)", allocs)
	}
	for ch := 0; ch < 2; ch++ {
		for i := ch * 3; i < (ch+1)*3; i++ {
			want := clampInt8(math.Round(float64(src[i] / scales[ch])))
			if dst[i] != want {
				t.Errorf("dst[%d] = %d, want %d", i, dst[i], want)
			}
			// Per-channel round-trip error is bounded by half a step.
			back := float32(dst[i]) * scales[ch]
			if math.Abs(float64(back-src[i])) > float64(scales[ch])/2+1e-7 {
				t.Errorf("round-trip dst[%d]: %g -> %g exceeds half-step %g", i, src[i], back, scales[ch]/2)
			}
		}
	}
	// The max-magnitude element of each channel must land exactly on ±127.
	if dst[0] != 127 {
		t.Errorf("channel 0 max maps to %d, want 127", dst[0])
	}
	if dst[3] != 127 {
		t.Errorf("channel 1 max maps to %d, want 127", dst[3])
	}

	// All-zero channel quantises to all zeros under its fallback scale.
	zsrc := []float32{0, 0, 0}
	zdst := []int8{1, 2, 3}
	QuantizeChannelsInto(zdst, zsrc, []float32{1}, 3)
	for i, v := range zdst {
		if v != 0 {
			t.Errorf("all-zero channel dst[%d] = %d, want 0", i, v)
		}
	}
}

// TestQuantizeU8Into is the quantizer's table, run under every kernel
// table the host has: the table repeats so the 8- and 16-lane bodies and
// their scalar tails all see every row. Non-finite inputs come from
// outside the program (a request's pixels), so their bytes are pinned too:
// NaN is the zero-point, which dequantizes to 0 as ReLU's NaN → +0 does,
// and the infinities saturate.
func TestQuantizeU8Into(t *testing.T) {
	scale := float32(2.0 / 127)
	cases := []struct {
		v    float32
		want uint8
	}{
		{0, 128},         // zero-point
		{2, 255},         // +max -> 128+127
		{-2, 1},          // -max -> 128-127
		{1000, 255},      // saturate high
		{-1000, 0},       // saturate low
		{scale, 129},     // one step up
		{-scale, 127},    // one step down
		{scale / 2, 129}, // half-step rounds up (round-half-up)
		{float32(math.NaN()), 128},
		{float32(math.Inf(1)), 255},
		{float32(math.Inf(-1)), 0},
		{math.MaxFloat32, 255},
		{-math.MaxFloat32, 0},
	}
	const reps = 3
	src := make([]float32, 0, reps*len(cases))
	for r := 0; r < reps; r++ {
		for _, tc := range cases {
			src = append(src, tc.v)
		}
	}
	dst := make([]uint8, len(src))
	defer tensor.SetKernels("auto")
	for _, isa := range tensor.KernelISAs() {
		if err := tensor.SetKernels(isa); err != nil {
			t.Fatal(err)
		}
		clear(dst)
		if allocs := testing.AllocsPerRun(10, func() {
			tensor.QuantizeU8(dst, src, 1/float64(scale))
		}); allocs > 0 {
			t.Errorf("%s: QuantizeU8 allocates (%v/run)", isa, allocs)
		}
		for i, got := range dst {
			if tc := cases[i%len(cases)]; got != tc.want {
				t.Errorf("%s: QuantizeU8(%g) at %d = %d, want %d", isa, tc.v, i, got, tc.want)
			}
		}
	}

	// Round-trip error, dequantizing as (q-128)·scale, is bounded by half a
	// step for in-range values.
	for i, tc := range cases {
		if !(tc.v <= 2 && tc.v >= -2) {
			continue // saturated, or NaN
		}
		back := float32(int32(dst[i])-128) * scale
		if math.Abs(float64(back-tc.v)) > float64(scale)/2+1e-7 {
			t.Errorf("u8 round-trip %g -> %g exceeds half-step", tc.v, back)
		}
	}
}

func TestMaxAbs(t *testing.T) {
	if got := MaxAbs(nil); got != 0 {
		t.Errorf("MaxAbs(nil) = %g", got)
	}
	if got := MaxAbs([]float32{0.5, -3, 2}); got != 3 {
		t.Errorf("MaxAbs = %g, want 3", got)
	}
	// An infinity counts as the largest finite float and NaN is skipped,
	// so every scale derived from the statistic is finite.
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	if got := MaxAbs([]float32{1, nan, -2}); got != 2 {
		t.Errorf("MaxAbs with NaN = %g, want 2", got)
	}
	for _, src := range [][]float32{{1, inf}, {-inf, 3}, {nan, inf}} {
		if got := MaxAbs(src); got != math.MaxFloat32 {
			t.Errorf("MaxAbs(%v) = %g, want MaxFloat32", src, got)
		}
		if got := ScaleFor(src); got != math.MaxFloat32/127 {
			t.Errorf("ScaleFor(%v) = %g, want MaxFloat32/127", src, got)
		}
	}
}

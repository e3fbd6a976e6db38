package tensor

import (
	"fmt"
	"testing"
)

// BenchmarkLowering times Im2colInto and Col2imFrom, one thread, one sample,
// at the six stride-2 geometries of the climate benchmark net — the k3/s2/p1
// encoder convolutions and the k4/s2/p1 lowerings under the decoder's
// deconvolutions — and at a stride-1 control, and reports ns per lowered
// element (C·KH·KW·OH·OW of them) next to ns/op.
func BenchmarkLowering(b *testing.B) {
	geoms := []struct{ c, hw, k, stride, pad int }{
		{16, 32, 3, 2, 1}, {32, 16, 3, 2, 1}, {64, 8, 3, 2, 1},
		{16, 32, 4, 2, 1}, {32, 16, 4, 2, 1}, {64, 8, 4, 2, 1},
		{16, 16, 3, 1, 1}, // control: the stride-1 path
	}
	rng := NewRNG(1)
	for _, g := range geoms {
		o := ConvOut(g.hw, g.k, g.stride, g.pad)
		elems := g.c * g.k * g.k * o * o
		img, col := randMat(rng, g.c*g.hw*g.hw), randMat(rng, elems)
		name := fmt.Sprintf("%dx%dx%d_k%ds%dp%d", g.c, g.hw, g.hw, g.k, g.stride, g.pad)
		perElem := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(elems), "ns/elem")
		}
		b.Run("im2col/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Im2colInto(img, g.c, g.hw, g.hw, g.k, g.k, g.stride, g.pad, col, o*o, 0)
			}
			perElem(b)
		})
		b.Run("col2im/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clear(img)
				Col2imFrom(col, o*o, 0, g.c, g.hw, g.hw, g.k, g.k, g.stride, g.pad, img)
			}
			perElem(b)
		})
	}
}

package tensor

import (
	"fmt"
	"testing"
)

// BenchmarkGemmShapes times one-threaded Gemm, the weight gradient and
// ConvAdjoint at the shapes the two training workloads really run and
// reports GFLOP/s next to ns/op.
// An NT row with ldb > k is a weight gradient the row-wise way, one
// sample at a time (weightGradRows: dotTile over each sample's window of a
// lowering that holds the whole batch), and a CD row the same through
// convDot, read from 3×3, pad-1 halo images whose output rows are ow
// wide: the per-sample products the packed kernel replaced, over the s
// samples of a chunk (_s<n>; flops counted for all of them). The WG row
// under them is WeightGrad over the same chunk, from the same buffers. A
// TC row is a stride-1 3×3, pad-1 data gradient the lowered way — the TN
// GEMM into a cleared Wᵀ·dy matrix, then Col2imFrom per sample into a
// cleared dx — and the AJ row under it is the same gradient
// as ConvAdjoint into a cleared dx, from the same channel-major dy, with
// the samples side by side in each channel of dx too.
func BenchmarkGemmShapes(b *testing.B) {
	shapes := []struct {
		op      string
		m, n, k int
		ldb     int // NT: B's row stride; CD: ow; TC, AJ: the plane's width; WG: either
		samples int // NT, CD, WG: the chunk; WG is halo (CD's layout) when ldb < k
	}{
		{"NN", 16, 256, 144, 0, 0},  // the benchmark's probe
		{"NN", 16, 4096, 27, 0, 0},  // hep conv1 forward
		{"NN", 16, 768, 144, 0, 0},  // hep conv2 forward
		{"TC", 144, 768, 16, 16, 0}, // hep conv2 data gradient: 3 samples of 16×16
		{"AJ", 144, 768, 16, 16, 0},
		{"TC", 144, 896, 16, 8, 0}, // hep conv3: 14 samples of 8×8
		{"AJ", 144, 896, 16, 8, 0},
		{"TC", 144, 256, 16, 4, 0}, // hep conv4: 16 samples of 4×4
		{"AJ", 144, 256, 16, 4, 0},
		{"NT", 16, 27, 1024, 4096, 4}, // hep conv1 weight gradient
		{"CD", 16, 27, 1024, 32, 4},
		{"WG", 16, 27, 1024, 32, 4},
		{"NT", 16, 144, 256, 768, 3},
		{"CD", 16, 144, 256, 16, 3},
		{"WG", 16, 144, 256, 16, 3},
		{"NT", 16, 144, 64, 896, 4},
		{"CD", 16, 144, 64, 8, 4},
		{"WG", 16, 144, 64, 8, 4}, // hep conv3's adjoint group
		{"NT", 16, 144, 16, 256, 16},
		{"CD", 16, 144, 16, 4, 16},
		{"WG", 16, 144, 16, 4, 16}, // hep conv4's adjoint group
		{"NN", 128, 64, 864, 0, 0}, // climate encoder forward
		{"NN", 64, 256, 288, 0, 0},
		{"TC", 864, 64, 128, 4, 0}, // climate encoder data gradient: enc_conv4, 4 samples of 4×4
		{"AJ", 864, 64, 128, 4, 0},
		{"TN", 288, 256, 64, 0, 0},
		{"NT", 128, 864, 16, 64, 4}, // climate weight gradients, k = OH·OW = 16
		{"CD", 128, 864, 16, 4, 4},
		{"WG", 128, 864, 16, 4, 4},
		{"NT", 96, 576, 16, 64, 4},
		{"WG", 96, 576, 16, 64, 4},
		{"NT", 128, 1024, 16, 64, 4},
		{"WG", 128, 1024, 16, 64, 4},
		{"NT", 64, 288, 64, 256, 0}, // k = 64
		{"NT", 64, 512, 64, 256, 4},
		{"WG", 64, 512, 64, 256, 4},
		{"NT", 32, 144, 256, 768, 3}, // k = 256
		{"WG", 32, 144, 256, 768, 3},
		{"NT", 32, 256, 256, 0, 0},
		{"TN", 1024, 16, 128, 0, 0}, // climate decoder, n = 16
		{"NN", 128, 16, 1024, 0, 0},
		{"TN", 512, 64, 64, 0, 0},
		{"NN", 64, 64, 512, 0, 0},
		{"NN", 8, 16, 72, 0, 0}, // a batch-1 serving request
		{"NN", 8, 128, 27, 0, 0},
	}
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	rng := NewRNG(1)
	for _, s := range shapes {
		ldb := max(s.ldb, s.k)
		samples := max(s.samples, 1)
		halo := s.op == "CD" || (s.op == "WG" && s.ldb < s.k)
		bn := s.k * s.n
		var off []int
		ow, pitch := s.ldb, s.ldb+2
		switch {
		case halo:
			plane := (s.k/ow + 2) * pitch
			for j := 0; j < s.n; j++ {
				off = append(off, j/9*plane+j%9/3*pitch+j%3)
			}
			bn = (s.n+8)/9*plane + 2
		case s.op == "NT" || s.op == "WG":
			bn = (s.n-1)*ldb + s.k
		}
		bStep := 0 // the next sample's image, or its columns of the lowering
		if samples > 1 {
			if halo {
				bStep = bn
				bn *= samples
			} else {
				bStep = s.k
				bn += (samples - 1) * s.k
			}
		}
		a, bm, c := randMat(rng, samples*s.m*s.k), randMat(rng, bn), make([]float32, s.m*s.n)
		name := fmt.Sprintf("%s_%dx%dx%d", s.op, s.m, s.n, s.k)
		// TC, AJ: K = m = inC·9 rows of Wᵀ, n = samples·w², k = outC.
		w, inC := s.ldb, s.m/9
		cols := w * w
		var dx []float32
		switch {
		case halo:
			name += fmt.Sprintf("_ow%d", s.ldb)
		case s.op == "TC" || s.op == "AJ":
			name += fmt.Sprintf("_%dx%d", w, w)
			a = randMat(rng, s.k*s.m) // the weights, outC × K
			dx = make([]float32, s.n/cols*inC*cols)
		case s.ldb != 0:
			name += fmt.Sprintf("_ldb%d", s.ldb)
		}
		if samples > 1 {
			name += fmt.Sprintf("_s%d", samples)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				switch {
				case s.op == "TC":
					clear(dx)
					Gemm(true, false, s.m, s.n, s.k, 1, a, bm, 0, c)
					for j := 0; j < s.n/cols; j++ {
						Col2imFrom(c, s.n, j*cols, inC, w, w, 3, 3, 1, 1, dx[j*inC*cols:])
					}
				case s.op == "AJ":
					clear(dx)
					ConvAdjoint(dx, inC, w, w, a, s.k, 3, 3, 1, bm, s.n/cols)
				case s.op == "WG":
					WeightGrad(s.m, s.n, s.k, samples, a, s.k, s.m*s.k, bm, ldb, bStep, off, ow, pitch, c, s.n)
				case s.op == "CD":
					weightGradRows(s.m, s.n, s.k, samples, a, s.k, s.m*s.k, bm, 0, bStep, off, ow, pitch, c, s.n)
				case s.ldb != 0:
					weightGradRows(s.m, s.n, s.k, samples, a, s.k, s.m*s.k, bm, ldb, bStep, nil, 0, 0, c, s.n)
				default:
					Gemm(s.op == "TN", s.op == "NT", s.m, s.n, s.k, 1, a, bm, 0, c)
				}
			}
			b.ReportMetric(float64(samples)*float64(GemmFLOPs(s.m, s.n, s.k))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkGemmSplit is the measurement behind gemmParallelMin: the same
// NN product inline and forced through a two-way ParallelFor, whatever the
// threshold says. Run it with -cpu 2.
func BenchmarkGemmSplit(b *testing.B) {
	rng := NewRNG(1)
	for _, s := range [][3]int{{8, 128, 72}, {16, 64, 144}, {16, 256, 144}, {16, 768, 144}, {16, 4096, 27}, {64, 256, 288}, {128, 64, 864}, {16, 1792, 144}, {16, 9216, 27}, {256, 256, 288}} {
		m, n, k := s[0], s[1], s[2]
		a, bm, c := randMat(rng, m*k), randMat(rng, k*n), make([]float32, m*n)
		b.Run(fmt.Sprintf("%dx%dx%d/inline", m, n, k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmABRows(0, m, n, k, 1, a, k, 1, bm, c)
			}
		})
		b.Run(fmt.Sprintf("%dx%dx%d/forked", m, n, k), func(b *testing.B) {
			defer SetWorkers(SetWorkers(2))
			for i := 0; i < b.N; i++ {
				ParallelFor(m, func(lo, hi int) { gemmABRows(lo, hi, n, k, 1, a, k, 1, bm, c) })
			}
		})
	}
}

package tensor

import (
	"fmt"
	"testing"
)

// BenchmarkGemmShapes times one-threaded Gemm / GemmNTAcc at the shapes the
// two training workloads really run (EXPERIMENTS.md "PR 21" table b) and
// reports GFLOP/s next to ns/op. ldb > k marks a GemmNTAcc window into a
// lowering that holds the whole batch.
func BenchmarkGemmShapes(b *testing.B) {
	shapes := []struct {
		op      string
		m, n, k int
		ldb     int
	}{
		{"NN", 16, 256, 144, 0},    // the benchmark's probe
		{"NN", 16, 4096, 27, 0},    // hep conv1 forward
		{"NN", 16, 768, 144, 0},    // hep conv2 forward
		{"TN", 144, 768, 16, 0},    // hep conv2 data gradient
		{"NT", 16, 27, 1024, 4096}, // hep conv1 weight gradient
		{"NT", 16, 144, 256, 768},
		{"NT", 16, 144, 64, 896},
		{"NT", 16, 144, 16, 256},
		{"NN", 128, 64, 864, 0}, // climate encoder forward
		{"NN", 64, 256, 288, 0},
		{"TN", 864, 64, 128, 0}, // climate encoder data gradient
		{"TN", 288, 256, 64, 0},
		{"NT", 128, 864, 16, 64}, // climate weight gradients, k = OH·OW = 16
		{"NT", 96, 576, 16, 64},
		{"NT", 128, 1024, 16, 0},
		{"NT", 64, 288, 64, 256}, // k = 64
		{"NT", 64, 512, 64, 0},
		{"NT", 32, 144, 256, 768}, // k = 256
		{"NT", 32, 256, 256, 0},
		{"TN", 1024, 16, 128, 0}, // climate decoder, n = 16
		{"NN", 128, 16, 1024, 0},
		{"TN", 512, 64, 64, 0},
		{"NN", 64, 64, 512, 0},
		{"NN", 8, 16, 72, 0}, // a batch-1 serving request
		{"NN", 8, 128, 27, 0},
	}
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	rng := NewRNG(1)
	for _, s := range shapes {
		ldb := max(s.ldb, s.k)
		bn := s.k * s.n
		if s.op == "NT" {
			bn = (s.n-1)*ldb + s.k
		}
		a, bm, c := randMat(rng, s.m*s.k), randMat(rng, bn), make([]float32, s.m*s.n)
		name := fmt.Sprintf("%s_%dx%dx%d", s.op, s.m, s.n, s.k)
		if s.ldb != 0 {
			name += fmt.Sprintf("_ldb%d", s.ldb)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				switch {
				case s.ldb != 0:
					GemmNTAcc(s.m, s.n, s.k, a, s.k, bm, ldb, c)
				default:
					Gemm(s.op == "TN", s.op == "NT", s.m, s.n, s.k, 1, a, bm, 0, c)
				}
			}
			b.ReportMetric(float64(GemmFLOPs(s.m, s.n, s.k))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
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

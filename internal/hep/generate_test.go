package hep

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"deep15pf/internal/tensor"
)

// TestGenerateDatasetPinned holds GenerateDataset to the bits it drew when
// every image was rendered on one goroutine, at 1, 2 and 4 workers: the
// images, the labels and the caller's next Uint64 and Norm (a train set and
// a test set are drawn from one generator, so where the dataset leaves it
// is part of the contract). 37 events do not split evenly across any of
// the worker counts; the noiseless renderer draws no Gaussians at all.
func TestGenerateDatasetPinned(t *testing.T) {
	noiseless := NewRenderer(16)
	noiseless.Noise = 0
	for _, tc := range []struct {
		name string
		r    *Renderer
		n    int
		want uint64
	}{
		{"16x16, 37 events", NewRenderer(16), 37, 0x2e46c2cffa5c4e85},
		{"32x32, 64 events", NewRenderer(32), 64, 0xf663c1b619d9aa06},
		{"16x16 noiseless, 37 events", noiseless, 37, 0x2d6b8cdf1a1c408e},
	} {
		for _, w := range []int{1, 2, 4} {
			prev := tensor.SetWorkers(w)
			rng := tensor.NewRNG(5)
			ds := GenerateDataset(DefaultGenConfig(), tc.r, tc.n, 0.5, rng)
			got := pinDataset(ds, rng)
			tensor.SetWorkers(prev)
			if got != tc.want {
				t.Errorf("%s, %d workers: pin %#016x, want %#016x", tc.name, w, got, tc.want)
			}
		}
	}
}

// pinDataset is FNV-1a over the images' bits, the labels and rng's next
// Uint64 and Norm.
func pinDataset(ds *Dataset, rng *tensor.RNG) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, ds.Images.Data)
	for _, l := range ds.Labels {
		binary.Write(h, binary.LittleEndian, int64(l))
	}
	binary.Write(h, binary.LittleEndian, rng.Uint64())
	binary.Write(h, binary.LittleEndian, math.Float64bits(rng.Norm()))
	return h.Sum64()
}

// BenchmarkGenerateDataset times score_bulk's input: 4096 events at 32×32,
// on one worker and on two.
func BenchmarkGenerateDataset(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			defer tensor.SetWorkers(tensor.SetWorkers(w))
			for i := 0; i < b.N; i++ {
				GenerateDataset(DefaultGenConfig(), NewRenderer(32), 4096, 0.5, tensor.NewRNG(7))
			}
		})
	}
}

package astro

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"deep15pf/internal/hep"
	"deep15pf/internal/tensor"
)

// TestGenerateDatasetPinned holds GenerateDataset to the bits it drew when
// every cutout was rendered on one goroutine, at 1, 2 and 4 workers: the
// images, the labels and the caller's next Uint64 and Norm. A 15×15 cutout
// draws 3·225 Gaussians, an odd count, so the Box–Muller pair's cached
// half passes from one object to the next.
func TestGenerateDatasetPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
		n    int
		want uint64
	}{
		{"15x15, 37 objects", 15, 37, 0xeb012a69b4b9f6fe},
		{"16x16, 24 objects", 16, 24, 0xa197850899936177},
	} {
		for _, w := range []int{1, 2, 4} {
			prev := tensor.SetWorkers(w)
			rng := tensor.NewRNG(5)
			ds := GenerateDataset(DefaultGenConfig(), NewRenderer(tc.size), tc.n, rng)
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
func pinDataset(ds *hep.Dataset, rng *tensor.RNG) uint64 {
	h := fnv.New64a()
	binary.Write(h, binary.LittleEndian, ds.Images.Data)
	for _, l := range ds.Labels {
		binary.Write(h, binary.LittleEndian, int64(l))
	}
	binary.Write(h, binary.LittleEndian, rng.Uint64())
	binary.Write(h, binary.LittleEndian, math.Float64bits(rng.Norm()))
	return h.Sum64()
}

// BenchmarkGenerateDataset times 1024 cutouts at 32×32 on one worker and
// on two.
func BenchmarkGenerateDataset(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			defer tensor.SetWorkers(tensor.SetWorkers(w))
			for i := 0; i < b.N; i++ {
				GenerateDataset(DefaultGenConfig(), NewRenderer(32), 1024, tensor.NewRNG(7))
			}
		})
	}
}

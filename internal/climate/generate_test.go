package climate

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"deep15pf/internal/tensor"
)

// TestGenerateDatasetPinned holds GenerateDataset to the bits it drew when
// every snapshot was made on one goroutine, at 1, 2 and 4 workers: the
// fields, the boxes and the caller's next Uint64 and Norm. A snapshot's
// draw count varies with its storms, so this also pins where each one
// starts in the stream.
func TestGenerateDatasetPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
		n    int
		want uint64
	}{
		{"32x32, 13 fields", 32, 13, 0xf2bcf1eecb1d2058},
		{"24x24, 9 fields", 24, 9, 0xad627e187d1d0246},
	} {
		for _, w := range []int{1, 2, 4} {
			prev := tensor.SetWorkers(w)
			rng := tensor.NewRNG(5)
			ds := GenerateDataset(DefaultGenConfig(tc.size), tc.n, rng)
			got := pinDataset(ds, rng)
			tensor.SetWorkers(prev)
			if got != tc.want {
				t.Errorf("%s, %d workers: pin %#016x, want %#016x", tc.name, w, got, tc.want)
			}
		}
	}
}

// pinDataset is FNV-1a over the fields' bits, every box and rng's next
// Uint64 and Norm.
func pinDataset(ds *Dataset, rng *tensor.RNG) uint64 {
	h := fnv.New64a()
	for _, s := range ds.Samples {
		binary.Write(h, binary.LittleEndian, s.Field.Data)
		binary.Write(h, binary.LittleEndian, int64(len(s.Boxes)))
		for _, b := range s.Boxes {
			binary.Write(h, binary.LittleEndian, [4]float64{b.X, b.Y, b.W, b.H})
			binary.Write(h, binary.LittleEndian, int64(b.Class))
		}
	}
	binary.Write(h, binary.LittleEndian, rng.Uint64())
	binary.Write(h, binary.LittleEndian, math.Float64bits(rng.Norm()))
	return h.Sum64()
}

// BenchmarkGenerateDataset times train_climate_hybrid's input: 256 fields
// at 32×32, on one worker and on two.
func BenchmarkGenerateDataset(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			defer tensor.SetWorkers(tensor.SetWorkers(w))
			for i := 0; i < b.N; i++ {
				GenerateDataset(DefaultGenConfig(32), 256, tensor.NewRNG(7))
			}
		})
	}
}

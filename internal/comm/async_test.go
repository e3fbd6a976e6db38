package comm

import (
	"sync"
	"testing"

	"deep15pf/internal/tensor"
)

func randBufs(seed uint64, n, dim int) [][]float32 {
	rng := tensor.NewRNG(seed)
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = make([]float32, dim)
		for i := range bufs[r] {
			bufs[r][i] = float32(rng.Norm())
		}
	}
	return bufs
}

func cloneBufs(src [][]float32) [][]float32 {
	out := make([][]float32, len(src))
	for r := range src {
		out[r] = append([]float32(nil), src[r]...)
	}
	return out
}

// TestAsyncMatchesBlockingBitwise: the async all-reduce must produce exactly
// the blocking collective's bits — same rank-order reduction tree — for
// every group size, including sizes that are not powers of two and chunks
// that straddle the ChunkElems boundary.
func TestAsyncMatchesBlockingBitwise(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for _, dim := range []int{1, 17, ChunkElems, ChunkElems + 37} {
			inputs := randBufs(uint64(n*1000+dim), n, dim)

			blocking := cloneBufs(inputs)
			g1 := NewGroup(n)
			runRanks(n, func(rank int) { g1.AllReduceMean(rank, blocking[rank]) })

			async := cloneBufs(inputs)
			g2 := NewGroup(n)
			runRanks(n, func(rank int) {
				h := g2.AllReduceMeanAsync(rank, async[rank])
				h.Wait()
			})

			for r := 0; r < n; r++ {
				for i := 0; i < dim; i++ {
					if blocking[r][i] != async[r][i] {
						t.Fatalf("n=%d dim=%d rank=%d elem %d: blocking %v vs async %v",
							n, dim, r, i, blocking[r][i], async[r][i])
					}
				}
			}
		}
	}
}

// TestAsyncOverlappedCollectives issues several reductions per rank before
// waiting any of them — the overlapped-backward pattern where layer L+1's
// reduce is in flight while layer L's is still filling.
func TestAsyncOverlappedCollectives(t *testing.T) {
	const n, layers, dim = 4, 6, 33
	want := make([][]float32, layers)
	bufs := make([][][]float32, layers) // [layer][rank]
	for l := range bufs {
		bufs[l] = randBufs(uint64(100+l), n, dim)
		want[l] = make([]float32, dim)
		for r := 0; r < n; r++ {
			for i, v := range bufs[l][r] {
				want[l][i] += v / n
			}
		}
	}
	g := NewGroup(n)
	runRanks(n, func(rank int) {
		handles := make([]Handle, layers)
		for l := 0; l < layers; l++ {
			handles[l] = g.AllReduceMeanAsync(rank, bufs[l][rank])
		}
		// Wait out of issue order to prove completion is order-independent.
		for l := layers - 1; l >= 0; l-- {
			handles[l].Wait()
		}
	})
	for l := 0; l < layers; l++ {
		for r := 0; r < n; r++ {
			for i := range want[l] {
				diff := float64(bufs[l][r][i] - want[l][i])
				if diff > 1e-4 || diff < -1e-4 {
					t.Fatalf("layer %d rank %d elem %d: %v want %v", l, r, i, bufs[l][r][i], want[l][i])
				}
			}
		}
	}
}

// TestAsyncHandleRecycling: after warmup, repeated async rounds must not
// allocate new collectives — the free list backs the steady state.
func TestAsyncHandleRecycling(t *testing.T) {
	g := NewGroup(1)
	buf := []float32{2}
	// Warm the free list and the match table.
	for i := 0; i < 3; i++ {
		g.AllReduceMeanAsync(0, buf).Wait()
	}
	if n := testing.AllocsPerRun(50, func() {
		g.AllReduceMeanAsync(0, buf).Wait()
	}); n != 0 {
		t.Fatalf("async steady state allocates %.1f per round", n)
	}
}

// TestAsyncSumSingleRankIdentity mirrors the blocking size-1 contract: over
// one rank the sum and the mean coincide, and both are the identity.
func TestAsyncSumSingleRankIdentity(t *testing.T) {
	g := NewGroup(1)
	buf := []float32{7}
	g.AllReduceMeanAsync(0, buf).Wait()
	if buf[0] != 7 {
		t.Fatalf("size-1 async all-reduce must be identity, got %v", buf[0])
	}
}

// TestConcurrentCollectivesOnDisjointGroups drives blocking and async
// collectives on disjoint groups simultaneously — the hybrid trainer's
// G-groups-in-one-process shape — and is meaningful under -race.
func TestConcurrentCollectivesOnDisjointGroups(t *testing.T) {
	const workers, k, rounds = 8, 4, 25
	const per = workers / k
	var wg sync.WaitGroup
	for gi := 0; gi < k; gi++ {
		g := NewGroup(per)
		for rank := 0; rank < per; rank++ {
			wg.Add(1)
			go func(gi int, g *Group, rank int) {
				defer wg.Done()
				buf := make([]float32, 64)
				for round := 0; round < rounds; round++ {
					for i := range buf {
						buf[i] = float32(gi + 1)
					}
					buf[1] = float32(rank)
					h := g.AllReduceMeanAsync(rank, buf)
					h.Wait()
					if buf[0] != float32(gi+1) || buf[1] != float32(per-1)/2 {
						t.Errorf("group %d rank %d round %d: %v", gi, rank, round, buf[:2])
						return
					}
					g.AllReduceMean(rank, buf)
				}
			}(gi, g, rank)
		}
	}
	wg.Wait()
}

// TestGatherIntoMatchesGather: the root gets its own buffer back filled by
// rank, and non-root buffers come back nil.
func TestGatherIntoMatchesGather(t *testing.T) {
	const n = 3
	g := NewGroup(n)
	out := make([]float64, n)
	runRanks(n, func(rank int) {
		var buf []float64
		if rank == 1 {
			buf = out
		}
		res := g.GatherInto(rank, 1, float64(rank)*2, buf)
		if rank == 1 {
			if &res[0] != &out[0] {
				t.Error("root must receive its own buffer back")
			}
		} else if res != nil {
			t.Errorf("non-root rank %d received %v", rank, res)
		}
	})
	for r := 0; r < n; r++ {
		if out[r] != float64(r)*2 {
			t.Fatalf("gather = %v", out)
		}
	}
}

package comm

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"deep15pf/internal/tensor"
)

// runRanks executes fn concurrently for every rank and waits.
func runRanks(n int, fn func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			fn(rank)
		}(r)
	}
	wg.Wait()
}

func TestAllReduceSumMatchesSerial(t *testing.T) {
	n := 5
	dim := 17
	rng := tensor.NewRNG(1)
	inputs := make([][]float32, n)
	want := make([]float32, dim)
	for r := range inputs {
		inputs[r] = make([]float32, dim)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.Norm())
			want[i] += inputs[r][i]
		}
	}
	g := NewGroup(n)
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = append([]float32(nil), inputs[r]...)
	}
	runRanks(n, func(rank int) { g.AllReduceSum(rank, bufs[rank]) })
	for r := 0; r < n; r++ {
		for i := 0; i < dim; i++ {
			if math.Abs(float64(bufs[r][i]-want[i])) > 1e-4 {
				t.Fatalf("rank %d elem %d: %v want %v", r, i, bufs[r][i], want[i])
			}
		}
	}
}

func TestAllReduceDeterministicAcrossRuns(t *testing.T) {
	// Floating-point reduction order is fixed, so repeated runs with the
	// same inputs must agree bitwise despite scheduler nondeterminism.
	n := 8
	dim := 64
	rng := tensor.NewRNG(2)
	inputs := make([][]float32, n)
	for r := range inputs {
		inputs[r] = make([]float32, dim)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.Norm()) * 1e-3
		}
	}
	run := func() []float32 {
		g := NewGroup(n)
		bufs := make([][]float32, n)
		for r := range bufs {
			bufs[r] = append([]float32(nil), inputs[r]...)
		}
		runRanks(n, func(rank int) { g.AllReduceSum(rank, bufs[rank]) })
		return bufs[3]
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic reduction at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAllReduceMean(t *testing.T) {
	g := NewGroup(4)
	bufs := [][]float32{{4}, {8}, {0}, {4}}
	runRanks(4, func(rank int) { g.AllReduceMean(rank, bufs[rank]) })
	for r := range bufs {
		if bufs[r][0] != 4 {
			t.Fatalf("mean = %v", bufs[r][0])
		}
	}
}

func TestAllReduceSingleRankNoop(t *testing.T) {
	g := NewGroup(1)
	buf := []float32{3}
	g.AllReduceSum(0, buf)
	if buf[0] != 3 {
		t.Fatal("size-1 allreduce must be identity")
	}
}

func TestBroadcast(t *testing.T) {
	n := 6
	g := NewGroup(n)
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = []float32{float32(r), float32(r)}
	}
	runRanks(n, func(rank int) { g.Broadcast(rank, 2, bufs[rank]) })
	for r := range bufs {
		if bufs[r][0] != 2 || bufs[r][1] != 2 {
			t.Fatalf("rank %d got %v, want root 2's data", r, bufs[r])
		}
	}
}

func TestGather(t *testing.T) {
	n := 4
	g := NewGroup(n)
	var got []float64
	runRanks(n, func(rank int) {
		var out []float64
		if rank == 0 {
			out = make([]float64, n)
		}
		res := g.GatherInto(rank, 0, float64(rank*10), out)
		if rank == 0 {
			got = res
		} else if res != nil {
			t.Errorf("non-root rank %d received %v", rank, res)
		}
	})
	for r, v := range got {
		if v != float64(r*10) {
			t.Fatalf("gather = %v", got)
		}
	}
}

func TestRepeatedCollectives(t *testing.T) {
	// The barrier must be reusable across many rounds.
	n := 3
	g := NewGroup(n)
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = make([]float32, 1)
	}
	runRanks(n, func(rank int) {
		for round := 0; round < 50; round++ {
			bufs[rank][0] = 1
			g.AllReduceSum(rank, bufs[rank])
			if bufs[rank][0] != float32(n) {
				t.Errorf("round %d rank %d: %v", round, rank, bufs[rank][0])
				return
			}
		}
	})
}

func TestRankValidation(t *testing.T) {
	g := NewGroup(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.AllReduceSum(5, []float32{1})
}

// Property: allreduce result is invariant to which rank contributes which
// buffer (sum commutes over rank permutations, up to the deterministic
// order's float tolerance).
func TestAllReducePermutationProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rng := tensor.NewRNG(uint64(seed) + 31)
		n := 2 + rng.Intn(4)
		dim := 1 + rng.Intn(8)
		inputs := make([][]float32, n)
		for r := range inputs {
			inputs[r] = make([]float32, dim)
			for i := range inputs[r] {
				inputs[r][i] = float32(rng.Norm())
			}
		}
		perm := rng.Perm(n)
		run := func(order []int) []float32 {
			g := NewGroup(n)
			bufs := make([][]float32, n)
			for r := range bufs {
				bufs[r] = append([]float32(nil), inputs[order[r]]...)
			}
			runRanks(n, func(rank int) { g.AllReduceSum(rank, bufs[rank]) })
			return bufs[0]
		}
		id := make([]int, n)
		for i := range id {
			id[i] = i
		}
		a := run(id)
		b := run(perm)
		for i := range a {
			if math.Abs(float64(a[i]-b[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeReductionOddAndOneRankGroups pins the blocking collectives on the
// group shapes the even-split tests miss: non-power-of-two sizes (the tree
// tail) and the degenerate 1-rank group every collective must treat as
// identity.
func TestTreeReductionOddAndOneRankGroups(t *testing.T) {
	for _, n := range []int{1, 3, 5, 7} {
		g := NewGroup(n)
		bufs := make([][]float32, n)
		var want float32
		for r := range bufs {
			bufs[r] = []float32{float32(r + 1), -float32(r + 1)}
			want += float32(r + 1)
		}
		runRanks(n, func(rank int) { g.AllReduceSum(rank, bufs[rank]) })
		for r := range bufs {
			if bufs[r][0] != want || bufs[r][1] != -want {
				t.Fatalf("n=%d rank %d: %v want ±%v", n, r, bufs[r], want)
			}
		}
		// Broadcast and Gather on the same odd group.
		runRanks(n, func(rank int) { g.Broadcast(rank, n-1, bufs[rank]) })
		for r := range bufs {
			if bufs[r][0] != want {
				t.Fatalf("broadcast n=%d rank %d: %v", n, r, bufs[r])
			}
		}
	}
	buf := []float32{42}
	NewGroup(1).AllReduceMean(0, buf)
	if buf[0] != 42 {
		t.Fatal("1-rank mean must be identity")
	}
}

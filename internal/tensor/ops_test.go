package tensor

import (
	"testing"
)

func TestAxpy(t *testing.T) {
	y := []float32{1, 1}
	Axpy(2, []float32{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy = %v", y)
	}
	Axpy(1, []float32{1, 1}, y) // alpha==1 fast path
	if y[0] != 8 || y[1] != 10 {
		t.Fatalf("Axpy alpha=1 = %v", y)
	}
	Scale(0.5, y)
	if y[0] != 4 || y[1] != 5 {
		t.Fatalf("Scale = %v", y)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("Axpy", func() { Axpy(1, []float32{1}, []float32{1, 2}) })
}

func TestParallelForCoversRangeOnce(t *testing.T) {
	prev := SetWorkers(4)
	defer SetWorkers(prev)
	n := 1000
	hits := make([]int32, n)
	ParallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestParallelForEmptyAndSingle(t *testing.T) {
	called := false
	ParallelFor(0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("ParallelFor(0) must not call fn")
	}
	ParallelFor(1, func(lo, hi int) {
		if lo != 0 || hi != 1 {
			t.Fatalf("bad range %d:%d", lo, hi)
		}
	})
}

func TestSetWorkersClamps(t *testing.T) {
	prev := SetWorkers(-3)
	if Workers() != 1 {
		t.Fatalf("Workers = %d, want clamp to 1", Workers())
	}
	SetWorkers(prev)
}

package tensor

import "testing"

// dot1 runs the active dotTile kernel over a single dot, which is all that
// is left of a standalone dot kernel: 0 + 1·dot(x, y).
func dot1(x, y []float32) float32 {
	var c [1]float32
	dotTile(1, 1, len(x), 1, x, len(x), y, len(x), c[:], 1)
	return c[0]
}

// TestDotKernelsBitwiseEqual pins the dispatch contract the same way
// axpy_test.go does for axpy: whatever kernel init selected must produce
// bitwise-identical sums to the generic reference at every length
// (covering the 16-, 8- and 1-element tails and the reduction tree).
func TestDotKernelsBitwiseEqual(t *testing.T) {
	rng := NewRNG(11)
	for n := 0; n <= 200; n++ {
		x := make([]float32, n)
		y := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.Norm())
			y[i] = float32(rng.Norm())
		}
		got := dot1(x, y)
		want := sdotGeneric(x, y)
		if got != want {
			t.Fatalf("n=%d: active kernel diverges from generic: %v vs %v", n, got, want)
		}
	}
}

// TestDotAgainstFloat64Reference bounds the kernel's accumulation error
// against the float64 Dot, guarding the reduction-tree rewrite.
func TestDotAgainstFloat64Reference(t *testing.T) {
	rng := NewRNG(12)
	for _, n := range []int{1, 7, 16, 33, 100, 1000} {
		x := make([]float32, n)
		y := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.Norm())
			y[i] = float32(rng.Norm())
		}
		got := float64(dot1(x, y))
		want := dot64(x, y)
		if diff := got - want; diff > 1e-2 || diff < -1e-2 {
			t.Fatalf("n=%d: dot=%v float64 ref=%v", n, got, want)
		}
	}
}

func BenchmarkDot1024(b *testing.B) {
	x := make([]float32, 1024)
	y := make([]float32, 1024)
	rng := NewRNG(13)
	for i := range x {
		x[i] = float32(rng.Norm())
		y[i] = float32(rng.Norm())
	}
	b.SetBytes(1024 * 8)
	var sink float32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += dot1(x, y)
	}
	_ = sink
}

// dot64 is the inner product accumulated in float64, the reference the
// float32 kernels are checked against.
func dot64(x, y []float32) float64 {
	var s float64
	for i := range x {
		s += float64(x[i]) * float64(y[i])
	}
	return s
}

package tensor

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	a := NewRNG(42)
	child := a.Split()
	if child.Uint64() == a.Uint64() {
		t.Fatal("split stream should diverge from parent")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := NewRNG(11)
	n := 50000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sum2 += v * v
	}
	mean := sum / float64(n)
	variance := sum2/float64(n) - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("variance = %v, want ~1", variance)
	}
}

func TestLogNormalMean(t *testing.T) {
	r := NewRNG(13)
	// E[exp(N(0, s^2))] = exp(s^2/2).
	s := 0.3
	n := 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.LogNormal(0, s)
	}
	want := math.Exp(s * s / 2)
	if math.Abs(sum/float64(n)-want) > 0.02 {
		t.Fatalf("lognormal mean = %v, want %v", sum/float64(n), want)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(17)
	for _, mean := range []float64{0.5, 3, 20, 100} {
		n := 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(r.Poisson(mean))
		}
		got := sum / float64(n)
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Fatalf("poisson(%v) mean = %v", mean, got)
		}
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("non-positive mean must give 0")
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(19)
	n := 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(2.0)
	}
	if math.Abs(sum/float64(n)-2.0) > 0.06 {
		t.Fatalf("exp mean = %v, want 2", sum/float64(n))
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(23)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(29)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestFillNorm(t *testing.T) {
	r := NewRNG(31)
	x := New(10000)
	r.FillNorm(x, 5, 0.1)
	mean := x.Sum() / float64(x.Len())
	if math.Abs(mean-5) > 0.01 {
		t.Fatalf("FillNorm mean = %v, want ~5", mean)
	}
}

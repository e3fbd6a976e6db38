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

// nextDraws returns r's next four draws as bits: a Norm, a Uint64, then two
// Norms, so a cached Gaussian half left behind is spent and checked too.
func nextDraws(r *RNG) [4]uint64 {
	return [4]uint64{math.Float64bits(r.Norm()), r.Uint64(), math.Float64bits(r.Norm()), math.Float64bits(r.Norm())}
}

// TestSkipNormsMatchesNorms: SkipNorms(n) leaves the generator where n
// Norm calls do, for even and odd n, from a state with and without a
// cached Gaussian half.
func TestSkipNormsMatchesNorms(t *testing.T) {
	for _, cached := range []bool{false, true} {
		for _, n := range []int{0, 1, 2, 3, 4, 7, 8, 255, 1024} {
			want := NewRNG(99)
			got := NewRNG(99)
			if cached {
				want.Norm()
				got.Norm()
			}
			for i := 0; i < n; i++ {
				want.Norm()
			}
			got.SkipNorms(n)
			if w, g := nextDraws(want), nextDraws(got); w != g {
				t.Errorf("cached %v, n %d: next draws %x, want %x", cached, n, g, w)
			}
		}
	}
}

// FuzzSkipNorms: after any prefix of Uint64 and Norm draws, SkipNorms(n)
// and n Norm calls leave the same next four draws.
func FuzzSkipNorms(f *testing.F) {
	f.Add(uint64(1), []byte{}, uint16(0))
	f.Add(uint64(2), []byte{1}, uint16(1))
	f.Add(uint64(3), []byte{1, 0, 1}, uint16(2))
	f.Add(uint64(4), []byte{0, 1, 1, 1}, uint16(675))
	f.Add(uint64(5), []byte{1, 1, 0}, uint16(4096))
	f.Fuzz(func(t *testing.T, seed uint64, prefix []byte, n uint16) {
		want, got := NewRNG(seed), NewRNG(seed)
		for _, b := range prefix {
			if b%2 == 0 {
				want.Uint64()
				got.Uint64()
			} else {
				want.Norm()
				got.Norm()
			}
		}
		for i := 0; i < int(n); i++ {
			want.Norm()
		}
		got.SkipNorms(int(n))
		if w, g := nextDraws(want), nextDraws(got); w != g {
			t.Fatalf("prefix %v, n %d: next draws %x, want %x", prefix, n, g, w)
		}
	})
}

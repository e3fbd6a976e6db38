package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// gemmRef is a direct triple-loop reference used to validate the blocked
// kernels.
func gemmRef(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	at := func(i, p int) float32 {
		if transA {
			return a[p*m+i]
		}
		return a[i*k+p]
	}
	bt := func(p, j int) float32 {
		if transB {
			return b[j*k+p]
		}
		return b[p*n+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(at(i, p)) * float64(bt(p, j))
			}
			c[i*n+j] = beta*c[i*n+j] + alpha*float32(s)
		}
	}
}

func randMat(r *RNG, n int) []float32 {
	m := make([]float32, n)
	for i := range m {
		m[i] = float32(r.Norm())
	}
	return m
}

func TestGemmAllVariantsAgainstReference(t *testing.T) {
	r := NewRNG(1)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 1, 7}, {1, 9, 2}, {8, 8, 8}, {13, 7, 5}, {3, 17, 11}}
	for _, ta := range []bool{false, true} {
		for _, tb := range []bool{false, true} {
			for _, s := range shapes {
				m, n, k := s[0], s[1], s[2]
				a := randMat(r, m*k)
				b := randMat(r, k*n)
				c0 := randMat(r, m*n)
				got := append([]float32(nil), c0...)
				want := append([]float32(nil), c0...)
				Gemm(ta, tb, m, n, k, 0.7, a, b, 0.3, got)
				gemmRef(ta, tb, m, n, k, 0.7, a, b, 0.3, want)
				for i := range got {
					if math.Abs(float64(got[i]-want[i])) > 1e-3 {
						t.Fatalf("trans=(%v,%v) shape=%v: got[%d]=%v want %v", ta, tb, s, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestGemmBetaZeroOverwritesNaN(t *testing.T) {
	// beta=0 must overwrite even NaN garbage in C (BLAS convention).
	a := []float32{1, 2}
	b := []float32{3, 4}
	c := []float32{float32(math.NaN())}
	Gemm(false, false, 1, 1, 2, 1, a, b, 0, c)
	if c[0] != 11 {
		t.Fatalf("c = %v, want 11", c[0])
	}
}

func TestGemmZeroDims(t *testing.T) {
	c := []float32{5}
	Gemm(false, false, 1, 1, 0, 1, nil, nil, 1, c) // k=0: C unchanged
	if c[0] != 5 {
		t.Fatalf("k=0 should leave C, got %v", c[0])
	}
	Gemm(false, false, 1, 1, 0, 1, nil, nil, 0, c) // k=0, beta=0: C zeroed
	if c[0] != 0 {
		t.Fatalf("k=0 beta=0 should zero C, got %v", c[0])
	}
}

// Property: GEMM is linear in A — G(alpha, A1+A2) == G(alpha, A1)+G(alpha, A2).
func TestGemmLinearityProperty(t *testing.T) {
	r := NewRNG(2)
	f := func(seed uint32) bool {
		rr := NewRNG(uint64(seed) + 3)
		m, n, k := 1+rr.Intn(6), 1+rr.Intn(6), 1+rr.Intn(6)
		a1 := randMat(r, m*k)
		a2 := randMat(r, m*k)
		b := randMat(r, k*n)
		sum := make([]float32, m*k)
		for i := range sum {
			sum[i] = a1[i] + a2[i]
		}
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		cs := make([]float32, m*n)
		Gemm(false, false, m, n, k, 1, a1, b, 0, c1)
		Gemm(false, false, m, n, k, 1, a2, b, 0, c2)
		Gemm(false, false, m, n, k, 1, sum, b, 0, cs)
		for i := range cs {
			if math.Abs(float64(cs[i]-(c1[i]+c2[i]))) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (AB)ᵀ == Bᵀ Aᵀ, exercised through the transpose variants.
func TestGemmTransposeIdentityProperty(t *testing.T) {
	r := NewRNG(4)
	f := func(seed uint32) bool {
		rr := NewRNG(uint64(seed) * 7)
		m, n, k := 1+rr.Intn(5), 1+rr.Intn(5), 1+rr.Intn(5)
		a := randMat(r, m*k) // m×k
		b := randMat(r, k*n) // k×n
		ab := make([]float32, m*n)
		Gemm(false, false, m, n, k, 1, a, b, 0, ab)
		// Compute Bᵀ Aᵀ as an n×m product using trans flags on the
		// original row-major buffers.
		btat := make([]float32, n*m)
		Gemm(true, true, n, m, k, 1, b, a, 0, btat)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(float64(ab[i*n+j]-btat[j*m+i])) > 1e-3 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGemmParallelMatchesSerial(t *testing.T) {
	r := NewRNG(9)
	m, n, k := 37, 23, 19
	a := randMat(r, m*k)
	b := randMat(r, k*n)
	serial := make([]float32, m*n)
	parallel := make([]float32, m*n)
	prev := SetWorkers(1)
	Gemm(false, false, m, n, k, 1, a, b, 0, serial)
	SetWorkers(4)
	undo := forceSplit()
	Gemm(false, false, m, n, k, 1, a, b, 0, parallel)
	undo()
	SetWorkers(prev)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("parallel result differs at %d: %v vs %v", i, parallel[i], serial[i])
		}
	}
}

func TestGemmFLOPs(t *testing.T) {
	if GemmFLOPs(2, 3, 4) != 48 {
		t.Fatalf("GemmFLOPs = %d, want 48", GemmFLOPs(2, 3, 4))
	}
}

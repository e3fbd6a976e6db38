package tensor

import (
	"math"
	"testing"
)

// gemmBitRef is the naive triple loop with the package's reference summation
// structure: k-ascending single-rounded multiply-adds for the axpy
// variants, sdotGeneric for the transpose-B variants. It is what the
// blocked kernels must reproduce bit for bit.
func gemmBitRef(transA, transB bool, m, n, k int, alpha float32, a, b []float32, beta float32, c []float32) {
	for i := 0; i < m*n; i++ {
		c[i] = float32(beta * c[i])
	}
	if beta == 0 {
		for i := 0; i < m*n; i++ {
			c[i] = 0
		}
	}
	if k == 0 || alpha == 0 {
		return
	}
	at := func(i, p int) float32 {
		if transA {
			return a[p*m+i]
		}
		return a[i*k+p]
	}
	if transB {
		row := make([]float32, k)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				row[p] = at(i, p)
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += float32(alpha * sdotGeneric(row, b[j*k:j*k+k]))
			}
		}
		return
	}
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := float32(alpha * at(i, p))
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i*n+j] += float32(av * b[p*n+j])
			}
		}
	}
}

// withISAs runs f under every kernel table the host supports, restoring
// the automatic choice afterwards.
func withISAs(t *testing.T, f func(isa string)) {
	t.Helper()
	for _, isa := range KernelISAs() {
		if err := SetKernels(isa); err != nil {
			t.Fatalf("SetKernels(%q): %v", isa, err)
		}
		f(isa)
	}
	if err := SetKernels("auto"); err != nil {
		t.Fatal(err)
	}
}

func TestSetKernels(t *testing.T) {
	if err := SetKernels("no-such-isa"); err == nil {
		t.Fatal("SetKernels accepted an unknown ISA")
	}
	for _, isa := range KernelISAs() {
		if err := SetKernels(isa); err != nil {
			t.Fatalf("SetKernels(%q): %v", isa, err)
		}
		if got := KernelISA(); got != isa {
			t.Fatalf("KernelISA() = %q after SetKernels(%q)", got, isa)
		}
	}
	if err := SetKernels("auto"); err != nil {
		t.Fatal(err)
	}
	t.Logf("host ISAs %v, auto = %q", KernelISAs(), KernelISA())
}

// TestGemmBlockedMatchesReference fuzzes the blocked GEMM against the
// naive reference over random shapes — including the tall-skinny m>>n and
// degenerate k=1 / n=1 cases the issue calls out, shapes straddling the
// gemmMR/gemmNC/gemmJB tile boundaries, alpha/beta combinations, and
// injected exact zeros (the zero-skip path) — under every host ISA.
// Comparison is bitwise (Float32bits), not approximate.
func TestGemmBlockedMatchesReference(t *testing.T) {
	rng := NewRNG(99)
	type shape struct{ m, n, k int }
	shapes := []shape{
		{1, 1, 1}, {1, 7, 1}, {3, 2, 1}, {5, 5, 5}, {4, 4, 16},
		{8, 513, 7}, {9, 512, 3}, {130, 3, 40}, {257, 2, 9},
		{31, 33, 17}, {16, 16, 144}, {6, 700, 2}, {12, 300, 64},
	}
	for i := 0; i < 12; i++ {
		shapes = append(shapes, shape{1 + rng.Intn(40), 1 + rng.Intn(600), 1 + rng.Intn(80)})
	}
	fill := func(s []float32) {
		for i := range s {
			s[i] = float32(rng.Norm())
			if rng.Intn(13) == 0 {
				s[i] = 0 // exercise the zero-skip path
			}
		}
	}
	prevWorkers := SetWorkers(3) // force the ParallelFor split too
	defer SetWorkers(prevWorkers)
	withISAs(t, func(isa string) {
		for _, sh := range shapes {
			for _, tt := range []struct{ ta, tb bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
				for _, ab := range []struct{ alpha, beta float32 }{{1, 0}, {0.5, 1}, {-1.25, 0.75}} {
					m, n, k := sh.m, sh.n, sh.k
					a := make([]float32, m*k)
					b := make([]float32, n*k)
					fill(a)
					fill(b)
					cInit := make([]float32, m*n)
					fill(cInit)
					got := append([]float32(nil), cInit...)
					want := append([]float32(nil), cInit...)
					Gemm(tt.ta, tt.tb, m, n, k, ab.alpha, a, b, ab.beta, got)
					gemmBitRef(tt.ta, tt.tb, m, n, k, ab.alpha, a, b, ab.beta, want)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("isa=%s shape=%dx%dx%d trans=%v/%v alpha=%g beta=%g: c[%d] = %x, want %x",
								isa, m, n, k, tt.ta, tt.tb, ab.alpha, ab.beta,
								i, math.Float32bits(got[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	})
}

// TestKernelsBitwiseAcrossISAs pins axpy/sdot/scal/axpy4 outputs across
// every installed ISA to the scalar body's bits, over lengths covering
// every vector-width tail.
func TestKernelsBitwiseAcrossISAs(t *testing.T) {
	rng := NewRNG(3)
	lengths := []int{0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 200, 1031}
	for _, n := range lengths {
		x := make([]float32, n)
		y := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.Norm())
			y[i] = float32(rng.Norm())
		}
		alpha := float32(rng.Norm())

		yRef := append([]float32(nil), y...)
		axpyGeneric(alpha, x, yRef)
		dotRef := sdotGeneric(x, y)
		sRef := append([]float32(nil), x...)
		scalGeneric(alpha, sRef)

		y40, y41, y42, y43 := clone4(y)
		axpy4Generic(alpha, alpha/2, -alpha, 2*alpha, x, y40, y41, y42, y43)

		withISAs(t, func(isa string) {
			yGot := append([]float32(nil), y...)
			axpy(alpha, x, yGot)
			if !bitsEqual(yGot, yRef) {
				t.Fatalf("axpy[%s] diverges at n=%d", isa, n)
			}
			if got := sdot(x, y); math.Float32bits(got) != math.Float32bits(dotRef) {
				t.Fatalf("sdot[%s] = %x, want %x at n=%d", isa, math.Float32bits(got), math.Float32bits(dotRef), n)
			}
			sGot := append([]float32(nil), x...)
			scal(alpha, sGot)
			if !bitsEqual(sGot, sRef) {
				t.Fatalf("scal[%s] diverges at n=%d", isa, n)
			}
			g0, g1, g2, g3 := clone4(y)
			axpy4(alpha, alpha/2, -alpha, 2*alpha, x, g0, g1, g2, g3)
			if !bitsEqual(g0, y40) || !bitsEqual(g1, y41) || !bitsEqual(g2, y42) || !bitsEqual(g3, y43) {
				t.Fatalf("axpy4[%s] diverges at n=%d", isa, n)
			}
		})
	}
}

func clone4(y []float32) (a, b, c, d []float32) {
	return append([]float32(nil), y...), append([]float32(nil), y...),
		append([]float32(nil), y...), append([]float32(nil), y...)
}

func bitsEqual(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestGemmS8MatchesScalar pins the int8 GEMM against a plain triple loop
// over random shapes, serial and parallel.
func TestGemmS8MatchesScalar(t *testing.T) {
	rng := NewRNG(23)
	for trial := 0; trial < 10; trial++ {
		m, n, k := 1+rng.Intn(20), 1+rng.Intn(50), 1+rng.Intn(200)
		a := make([]int8, m*k)
		b := make([]uint8, n*k)
		for i := range a {
			a[i] = int8(rng.Intn(256) - 128)
		}
		for i := range b {
			b[i] = uint8(rng.Intn(256))
		}
		want := make([]int32, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var s int32
				for p := 0; p < k; p++ {
					s += int32(a[i*k+p]) * int32(b[j*k+p])
				}
				want[i*n+j] = s
			}
		}
		for _, workers := range []int{1, 3} {
			prev := SetWorkers(workers)
			got := make([]int32, m*n)
			withISAs(t, func(isa string) {
				for i := range got {
					got[i] = -1
				}
				GemmS8(m, n, k, a, b, got)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("isa=%s workers=%d %dx%dx%d: c[%d]=%d want %d", isa, workers, m, n, k, i, got[i], want[i])
					}
				}
			})
			SetWorkers(prev)
		}
	}
}

// TestGemmWarmNoAlloc keeps the 0-alloc contract on the serial GEMM paths
// a warmed plan depends on, now that blocking and pack recycling are in
// the loop.
func TestGemmWarmNoAlloc(t *testing.T) {
	prev := SetWorkers(1)
	defer SetWorkers(prev)
	rng := NewRNG(5)
	m, n, k := 9, 33, 21
	a := make([]float32, m*k)
	b := make([]float32, n*k)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = float32(rng.Norm())
	}
	for i := range b {
		b[i] = float32(rng.Norm())
	}
	for _, tt := range []struct{ ta, tb bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
		Gemm(tt.ta, tt.tb, m, n, k, 1, a, b, 0, c) // warm the pack free list
		allocs := testing.AllocsPerRun(20, func() {
			Gemm(tt.ta, tt.tb, m, n, k, 1, a, b, 0, c)
		})
		if allocs > 0 {
			t.Errorf("trans=%v/%v: %v allocs per warmed serial Gemm, want 0", tt.ta, tt.tb, allocs)
		}
	}
	s8a := make([]int8, m*k)
	s8b := make([]uint8, n*k)
	s8c := make([]int32, m*n)
	if allocs := testing.AllocsPerRun(20, func() { GemmS8(m, n, k, s8a, s8b, s8c) }); allocs > 0 {
		t.Errorf("GemmS8: %v allocs per warmed serial call, want 0", allocs)
	}
}

// BenchmarkGemmBetaPrescale isolates the satellite fix: beta!=0,1
// pre-scaling now runs the dispatched scal kernel instead of a scalar
// element loop.
func BenchmarkGemmBetaPrescale(b *testing.B) {
	n := 512
	c := make([]float32, n*n)
	for i := range c {
		c[i] = 1
	}
	b.SetBytes(int64(n * n * 4))
	for i := 0; i < b.N; i++ {
		// k=0 returns right after the pre-scale, measuring it alone.
		Gemm(false, false, n, n, 0, 1, nil, nil, 0.999999, c)
	}
}

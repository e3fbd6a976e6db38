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

// gemmCase is one product TestGemmBlockedMatchesReference checks: the
// transposes it runs under ("NN", "TN", "NT", "TT") and whether it takes
// the full alpha×beta grid or, for the large workload shapes, a diagonal.
type gemmCase struct {
	m, n, k int
	ops     []string
	full    bool
}

var allOps = []string{"NN", "TN", "NT", "TT"}

// TestGemmBlockedMatchesReference holds Gemm to the naive reference, bit
// for bit (Float32bits, not a tolerance), under every host ISA and with 1,
// 2 and 3 workers: every m, n and k tail around the tiles' 4- and 8-row
// panels, their 4-, 16- and 32-column blocks and the dot's 8- and 16-float
// blocks; random shapes; the tall-skinny and degenerate k=1 / n=1 cases;
// the products the two training workloads really run; alpha and beta over
// {1, 0.5, −1.25} × {0, 1, 0.75}; and exact zeros injected into both
// operands (the zero-skip path).
func TestGemmBlockedMatchesReference(t *testing.T) {
	rng := NewRNG(99)
	var cases []gemmCase
	for _, sh := range [][3]int{
		{1, 1, 1}, {1, 7, 1}, {3, 2, 1}, {5, 5, 5}, {4, 4, 16},
		{8, 513, 7}, {9, 512, 3}, {130, 3, 40}, {257, 2, 9},
		{31, 33, 17}, {16, 16, 144}, {6, 700, 2}, {12, 300, 64},
	} {
		cases = append(cases, gemmCase{sh[0], sh[1], sh[2], allOps, true})
	}
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17} {
		n, k := 1+rng.Intn(70), 1+rng.Intn(40)
		cases = append(cases, gemmCase{m, n, k, allOps, true})
	}
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 47, 48, 49, 63, 64, 65} {
		m, k := 1+rng.Intn(20), 1+rng.Intn(40)
		cases = append(cases, gemmCase{m, n, k, allOps, true})
	}
	for _, k := range []int{1, 2, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 40, 47, 48, 49} {
		m, n := 1+rng.Intn(20), 1+rng.Intn(70)
		cases = append(cases, gemmCase{m, n, k, allOps, true})
	}
	for i := 0; i < 12; i++ {
		cases = append(cases, gemmCase{1 + rng.Intn(40), 1 + rng.Intn(600), 1 + rng.Intn(80), allOps, true})
	}
	// train_hep_sync: the conv forwards (NN) with their data gradients
	// (TN, m and k swapped), and the dense head.
	for _, n := range []int{16384, 4096, 1024, 256} {
		cases = append(cases,
			gemmCase{16, n, 27, []string{"NN"}, false},
			gemmCase{16, n, 144, []string{"NN"}, false},
			gemmCase{144, n, 16, []string{"TN"}, false})
	}
	cases = append(cases, gemmCase{16, 2, 16, allOps, true})
	// train_climate_hybrid: the k = OH·OW = 16 weight gradients, the
	// decoder's n = 16 products, k = 64 and k = 256, the encoder, a head.
	cases = append(cases,
		gemmCase{128, 864, 16, []string{"NT"}, false},
		gemmCase{96, 576, 16, []string{"NT"}, false},
		gemmCase{128, 1024, 16, []string{"NT"}, false},
		gemmCase{1024, 16, 128, []string{"TN"}, false},
		gemmCase{128, 16, 1024, []string{"NN"}, false},
		gemmCase{64, 512, 64, []string{"NT"}, false},
		gemmCase{512, 64, 64, []string{"TN"}, false},
		gemmCase{32, 256, 256, []string{"NN", "NT"}, false},
		gemmCase{128, 64, 864, []string{"NN"}, false},
		gemmCase{864, 64, 128, []string{"TN"}, false},
		gemmCase{3, 64, 1152, []string{"NN"}, false},
		gemmCase{1152, 64, 3, []string{"TN"}, false})
	fill := func(s []float32) { fillSparse(rng, s, 13) }
	scalars := []float32{1, 0.5, -1.25, 0, 1, 0.75} // alphas, then betas
	defer SetWorkers(SetWorkers(1))
	defer forceSplit()()
	for _, cs := range cases {
		m, n, k := cs.m, cs.n, cs.k
		a := make([]float32, m*k)
		b := make([]float32, n*k)
		cInit := make([]float32, m*n)
		fill(a)
		fill(b)
		fill(cInit)
		got := make([]float32, m*n)
		want := make([]float32, m*n)
		for _, op := range cs.ops {
			ta, tb := op[0] == 'T', op[1] == 'T'
			for ai, alpha := range scalars[:3] {
				for bi, beta := range scalars[3:] {
					if !cs.full && ai != bi {
						continue
					}
					copy(want, cInit)
					gemmBitRef(ta, tb, m, n, k, alpha, a, b, beta, want)
					for workers := 1; workers <= 3; workers++ {
						SetWorkers(workers)
						withISAs(t, func(isa string) {
							copy(got, cInit)
							Gemm(ta, tb, m, n, k, alpha, a, b, beta, got)
							for i := range want {
								if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
									t.Fatalf("isa=%s workers=%d shape=%dx%dx%d %s alpha=%g beta=%g: c[%d] = %x, want %x",
										isa, workers, m, n, k, op, alpha, beta,
										i, math.Float32bits(got[i]), math.Float32bits(want[i]))
								}
							}
						})
					}
				}
			}
		}
	}
}

// TestGemmNTAccMatchesReference holds WeightGrad over a lowering's
// windows to the reference NT product on the copied-out windows, sample
// by sample in order: the hep convolutions' products, read out of a
// lowering that holds the chunk (ldb = samples·cols, each sample's columns
// cols further on), the climate shapes, k on both sides of the packed
// kernel's limit, and every row, column and k tail — on one to three
// workers, every product forced through the split.
func TestGemmNTAccMatchesReference(t *testing.T) {
	rng := NewRNG(101)
	type window struct{ m, n, k, lda, ldb, samples int }
	cases := []window{
		{16, 27, 1024, 1024, 4096, 4}, {16, 144, 256, 256, 768, 3}, {16, 144, 64, 64, 896, 14}, {16, 144, 16, 16, 256, 16},
		{128, 864, 16, 16, 64, 4}, {96, 576, 16, 16, 64, 4}, {64, 288, 64, 64, 256, 4}, {32, 144, 256, 256, 768, 3},
		{1, 1152, 16, 16, 64, 4}, {3, 1152, 16, 16, 64, 1}, {5, 40, 128, 128, 256, 2}, {5, 40, 129, 129, 258, 2},
	}
	for m := 1; m <= 9; m++ {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9} {
			k := 1 + rng.Intn(70)
			samples := 1 + rng.Intn(4)
			cases = append(cases, window{m, n, k, k + rng.Intn(5), samples*k + rng.Intn(9), samples})
		}
	}
	defer SetWorkers(SetWorkers(1))
	defer forceSplit()()
	for _, w := range cases {
		cols := w.ldb / w.samples // one sample's columns
		aStep := (w.m-1)*w.lda + w.k
		a := randMat(rng, (w.samples-1)*aStep+(w.m-1)*w.lda+w.k)
		b := randMat(rng, (w.n-1)*w.ldb+(w.samples-1)*cols+w.k)
		cInit := randMat(rng, w.m*w.n)
		want := append([]float32(nil), cInit...)
		ad := make([]float32, w.m*w.k)
		bd := make([]float32, w.n*w.k)
		for s := 0; s < w.samples; s++ {
			for i := 0; i < w.m; i++ {
				copy(ad[i*w.k:(i+1)*w.k], a[s*aStep+i*w.lda:])
			}
			for j := 0; j < w.n; j++ {
				copy(bd[j*w.k:(j+1)*w.k], b[s*cols+j*w.ldb:])
			}
			gemmBitRef(false, true, w.m, w.n, w.k, 1, ad, bd, 1, want)
		}
		got := make([]float32, len(want))
		for workers := 1; workers <= 3; workers++ {
			SetWorkers(workers)
			withISAs(t, func(isa string) {
				copy(got, cInit)
				WeightGrad(w.m, w.n, w.k, w.samples, a, w.lda, aStep, b, w.ldb, cols, nil, 0, 0, got, w.n)
				if !bitsEqual(got, want) {
					t.Fatalf("isa=%s workers=%d window %+v diverges from the reference", isa, workers, w)
				}
			})
		}
	}
}

// TestGemmZeroSkip pins the rule that a step whose alpha·a is exactly zero
// leaves its C row untouched. Each case fails if the skip is dropped: a
// zero in A against +Inf, −Inf and NaN in B would make NaN, and against a
// finite B would turn a −0 in C into +0. The zero sits in every row of an
// 8-row panel and its 4- and 1-row tails, over one- and two-vector column
// blocks, for ±0 in A, and for an alpha·a that only rounds to zero.
func TestGemmZeroSkip(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	tiny := math.Float32frombits(1) // 0.5·tiny rounds to zero
	for _, n := range []int{1, 5, 16, 21, 32, 40} {
		for _, ta := range []bool{false, true} {
			for zr := 0; zr < 14; zr++ {
				for _, cfg := range []struct{ alpha, zero float32 }{{1, 0}, {1, negZero}, {0.5, 0}, {0.5, tiny}} {
					const m, k, zp = 14, 5, 2
					a := make([]float32, m*k)
					b := make([]float32, k*n)
					for i := range a {
						a[i] = float32(1 + i%3)
					}
					for i := range b {
						b[i] = float32(1 + i%5)
					}
					at := func(i, p int) int {
						if ta {
							return p*m + i
						}
						return i*k + p
					}
					a[at(zr, zp)] = cfg.zero
					for j := 0; j < n; j++ {
						b[zp*n+j] = []float32{inf, -inf, nan, 1}[j%4]
					}
					// Row zr+1 is all zeros over a −0 row of C.
					zrow := (zr + 1) % m
					for p := 0; p < k; p++ {
						a[at(zrow, p)] = cfg.zero
					}
					cInit := make([]float32, m*n)
					for i := range cInit {
						cInit[i] = float32(i % 7)
					}
					for j := 0; j < n; j++ {
						cInit[zrow*n+j] = negZero
					}
					want := append([]float32(nil), cInit...)
					gemmBitRef(ta, false, m, n, k, cfg.alpha, a, b, 1, want)
					for j := 0; j < n; j++ {
						if math.Float32bits(want[zrow*n+j]) != math.Float32bits(negZero) {
							t.Fatalf("reference lost the −0 at row %d", zrow)
						}
						if v := want[zr*n+j]; v != v || math.IsInf(float64(v), 0) {
							t.Fatalf("reference let the zero at row %d meet B's non-finite row", zr)
						}
					}
					withISAs(t, func(isa string) {
						got := append([]float32(nil), cInit...)
						Gemm(ta, false, m, n, k, cfg.alpha, a, b, 1, got)
						if !bitsEqual(got, want) {
							t.Fatalf("isa=%s n=%d transA=%v zero row %d alpha=%g zero=%x: zero-skip broken",
								isa, n, ta, zr, cfg.alpha, math.Float32bits(cfg.zero))
						}
					})
				}
			}
		}
	}
}

// TestGemmRejectsShortOperands: a short A or B panics before any kernel
// runs, with C untouched, in all four transpose cases.
func TestGemmRejectsShortOperands(t *testing.T) {
	const m, n, k = 9, 33, 21
	for _, op := range allOps {
		for _, short := range []string{"a", "b"} {
			a := make([]float32, m*k)
			b := make([]float32, k*n)
			if short == "a" {
				a = a[:m*k-1]
			} else {
				b = b[:k*n-1]
			}
			c := make([]float32, m*n)
			for i := range c {
				c[i] = 3
			}
			func() {
				defer func() {
					if r := recover(); r != "tensor: Gemm operand too small" {
						t.Fatalf("%s short %s: recovered %v", op, short, r)
					}
				}()
				Gemm(op[0] == 'T', op[1] == 'T', m, n, k, 1, a, b, 0, c)
				t.Fatalf("%s short %s: no panic", op, short)
			}()
			for i, v := range c {
				if v != 3 {
					t.Fatalf("%s short %s: c[%d] written before the panic", op, short, i)
				}
			}
		}
	}
}

// TestKernelsBitwiseAcrossISAs pins axpy, scal, a single dot and the two
// GEMM tiles across every installed ISA to the scalar body's bits: the
// vector kernels over lengths covering every vector-width tail, the tiles
// over every panel height, column tail and k tail, strided like NN, like
// TN and like a lowering's windows, with exact zeros in A.
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

		withISAs(t, func(isa string) {
			yGot := append([]float32(nil), y...)
			axpy(alpha, x, yGot)
			if !bitsEqual(yGot, yRef) {
				t.Fatalf("axpy[%s] diverges at n=%d", isa, n)
			}
			if got := dot1(x, y); math.Float32bits(got) != math.Float32bits(0+dotRef) {
				t.Fatalf("dotTile[%s] = %x, want %x at n=%d", isa, math.Float32bits(got), math.Float32bits(dotRef), n)
			}
			sGot := append([]float32(nil), x...)
			scal(alpha, sGot)
			if !bitsEqual(sGot, sRef) {
				t.Fatalf("scal[%s] diverges at n=%d", isa, n)
			}
		})
	}

	fill := func(s []float32) { fillSparse(rng, s, 9) }
	for mr := 1; mr <= gemmMR; mr++ {
		for _, n := range []int{1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 48, 50, 64, 71} {
			for _, k := range []int{0, 1, 2, 9} {
				for _, tn := range []bool{false, true} {
					ars, aps := k+3, 1 // rows of a wider row-major A
					if tn {
						ars, aps = 1, mr+2 // columns of a wider stored transpose
					}
					ldb, ldc := n+1, n+2
					a := make([]float32, mr*ars+k*aps)
					b := make([]float32, k*ldb+n)
					c := make([]float32, mr*ldc)
					fill(a)
					fill(b)
					fill(c)
					want := append([]float32(nil), c...)
					gemmTileGeneric(mr, n, k, a, ars, aps, b, ldb, want, ldc)
					withISAs(t, func(isa string) {
						got := append([]float32(nil), c...)
						gemmTile(mr, n, k, a, ars, aps, b, ldb, got, ldc)
						if !bitsEqual(got, want) {
							t.Fatalf("gemmTile[%s] diverges at mr=%d n=%d k=%d tn=%v", isa, mr, n, k, tn)
						}
					})
				}
			}
		}
	}
	for mr := 1; mr <= dotMR; mr++ {
		for n := 1; n <= 9; n++ {
			for _, k := range []int{0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 41, 64, 90} {
				lda, ldb, ldc := k+1, k+5, n+3
				a := make([]float32, mr*lda)
				b := make([]float32, n*ldb)
				c := make([]float32, mr*ldc)
				fill(a)
				fill(b)
				fill(c)
				alpha := float32(rng.Norm())
				want := append([]float32(nil), c...)
				dotTileGeneric(mr, n, k, alpha, a, lda, b, ldb, want, ldc)
				withISAs(t, func(isa string) {
					got := append([]float32(nil), c...)
					dotTile(mr, n, k, alpha, a, lda, b, ldb, got, ldc)
					if !bitsEqual(got, want) {
						t.Fatalf("dotTile[%s] diverges at mr=%d n=%d k=%d", isa, mr, n, k)
					}
				})
			}
		}
	}
}

// forceSplit makes every product with more than one row and more than one
// worker take the ParallelFor path, and returns the undo.
func forceSplit() func() {
	prev := gemmParallelMin
	gemmParallelMin = 0
	return func() { gemmParallelMin = prev }
}

// fillSparse fills s with normal draws, one in oneIn of them replaced by an
// exact zero (the zero-skip path).
func fillSparse(rng *RNG, s []float32, oneIn int) {
	for i := range s {
		s[i] = float32(rng.Norm())
		if rng.Intn(oneIn) == 0 {
			s[i] = 0
		}
	}
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
// over random shapes.
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
		got := make([]int32, m*n)
		withISAs(t, func(isa string) {
			for i := range got {
				got[i] = -1
			}
			GemmS8(m, n, k, a, b, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("isa=%s %dx%dx%d: c[%d]=%d want %d", isa, m, n, k, i, got[i], want[i])
				}
			}
		})
	}
}

// TestGemmWarmNoAlloc keeps the 0-alloc contract on the serial GEMM paths
// a warmed plan depends on — pack recycling is in the loop for TT — and on
// the per-sample weight-gradient window, which must stay inline (under
// gemmParallelMin) with two workers as well.
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
	// hep conv4's dW: 16×144 over a 4×4 plane, out of a 16-sample
	// lowering, one sample and the whole chunk; and conv2's, past the
	// packed kernel's k.
	wa, wb, wc := make([]float32, 16*256), make([]float32, 144*4096), make([]float32, 16*144)
	for _, workers := range []int{1, 2} {
		SetWorkers(workers)
		for _, wg := range [][2]int{{16, 1}, {16, 16}, {256, 1}} {
			k, samples := wg[0], wg[1]
			if allocs := testing.AllocsPerRun(20, func() { WeightGrad(16, 144, k, samples, wa, k, 16*k, wb, samples*k, k, nil, 0, 0, wc, 144) }); allocs > 0 {
				t.Errorf("WeightGrad k=%d samples=%d, %d workers: %v allocs per call, want 0", k, samples, workers, allocs)
			}
		}
	}
	s8a := make([]int8, m*k)
	s8b := make([]uint8, n*k)
	s8c := make([]int32, m*n)
	if allocs := testing.AllocsPerRun(20, func() { GemmS8(m, n, k, s8a, s8b, s8c) }); allocs > 0 {
		t.Errorf("GemmS8, %d workers: %v allocs per warmed call, want 0", Workers(), allocs)
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

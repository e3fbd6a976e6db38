package tensor

import (
	"fmt"
	"math"
	"math/big"
	"sync"
	"sync/atomic"
	"testing"
)

// sincosMismatch reports how Sincos and Sin differ from math at x, or "".
func sincosMismatch(x float64) string {
	s, c := Sincos(x)
	ws, wc := math.Sin(x), math.Cos(x)
	if math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(c) != math.Float64bits(wc) {
		return fmt.Sprintf("Sincos(%v [%#016x]) = %v, %v; math gives %v, %v", x, math.Float64bits(x), s, c, ws, wc)
	}
	if s1 := Sin(x); math.Float64bits(s1) != math.Float64bits(ws) {
		return fmt.Sprintf("Sin(%v [%#016x]) = %v; math gives %v", x, math.Float64bits(x), s1, ws)
	}
	return ""
}

// TestSincosMatchesMath holds Sincos and Sin to math.Sin and math.Cos bit
// for bit: the special values, each side of every octant boundary and of
// 2^29 (where math switches reduction), and 10^6 seeded arguments spread
// over every binade of the branch-free range.
func TestSincosMatchesMath(t *testing.T) {
	var xs []float64
	for _, x := range []float64{
		0, math.Copysign(0, -1), -1, -math.Pi, math.Pi, 2 * math.Pi,
		math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-30, 1e-8,
		trigReduceMax, math.MaxFloat64, -math.MaxFloat64,
	} {
		xs = append(xs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
	}
	// Multiples of π/4 and their neighbours: where math's j and its
	// odd-octant increment change.
	for k := 1; k < 1<<12; k++ {
		x := float64(k) * (math.Pi / 4)
		xs = append(xs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)), -x)
	}
	for k := uint64(1); k < 1<<12; k++ {
		x := float64(trigReduceMax/(math.Pi/4)-float64(k)) * (math.Pi / 4)
		xs = append(xs, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
	}
	for _, x := range xs {
		if msg := sincosMismatch(x); msg != "" {
			t.Fatal(msg)
		}
	}
	r := NewRNG(44)
	for n := 0; n < 1_000_000; n++ {
		// A uniform mantissa under a uniform exponent in [2^-30, 2^30).
		x := math.Ldexp(1+r.Float64(), int(r.Uint64()%60)-30)
		if msg := sincosMismatch(x); msg != "" {
			t.Fatal(msg)
		}
	}
}

// logCompressWant is the definition LogCompress is held to.
func logCompressWant(v float32) float32 {
	return float32(math.Log1p(float64(v)) * 0.5)
}

// TestLogCompressStrided compares LogCompress with its definition on a
// strided sweep of all float32 bit patterns, either sign, on the edges of
// every binade, and around every input of the sweep whose table sum
// needed the fallback. Over the sweep the table sum stays
// within a few float64 ulps of math.Log1p, far inside logGuard.
func TestLogCompressStrided(t *testing.T) {
	check := func(v float32) {
		got, want := LogCompress(v), logCompressWant(v)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("LogCompress(%v [%#08x]) = %v [%#08x], want %v [%#08x]",
				v, math.Float32bits(v), got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
	// Every 1931st pattern, then 2^20 in a row from 0.25 up: hep's noise
	// level, where the fallback's neighbourhood is dense enough to meet.
	var sweep []uint32
	for b := uint64(0); b < 1<<32; b += 1931 {
		sweep = append(sweep, uint32(b))
	}
	for b := math.Float32bits(0.25); b < math.Float32bits(0.25)+1<<20; b++ {
		sweep = append(sweep, b)
	}
	var fallbacks []uint32
	var worst float64
	for _, b := range sweep {
		v := math.Float32frombits(b)
		check(v)
		x := float64(v)
		if !(x >= 0x1p-29 && x < 0x1p53) {
			continue
		}
		l := log1pTable(x)
		if nearFloat32Midpoint(l) {
			fallbacks = append(fallbacks, b)
		}
		ulps := math.Abs(l-math.Log1p(x)) / (math.Nextafter(l, math.Inf(1)) - l)
		worst = math.Max(worst, ulps)
	}
	t.Logf("worst %.2f ulps, %d fallbacks", worst, len(fallbacks))
	if worst > 8 {
		t.Errorf("table sum strays %.1f ulps from math.Log1p; the guard assumes a few", worst)
	}
	if len(fallbacks) == 0 {
		t.Error("the sweep met no fallback: the guard's neighbourhood is untested")
	}
	for _, b := range fallbacks {
		for d := uint32(0); d < 64; d++ {
			check(math.Float32frombits(b - d))
			check(math.Float32frombits(b + d))
		}
	}
	for e := uint32(0); e < 256; e++ {
		for d := uint32(0); d < 64; d++ {
			lo := e<<23 | d
			hi := e<<23 | (1<<23 - 1 - d)
			check(math.Float32frombits(lo))
			check(math.Float32frombits(hi))
			check(math.Float32frombits(lo | 1<<31))
		}
	}
}

// TestLogCTable recomputes log(1 + i/128) in 256-bit arithmetic, as
// 2·atanh((c−1)/(c+1)), and checks the table is its float64 rounding; and
// that logInvC holds the reciprocals.
func TestLogCTable(t *testing.T) {
	const prec = 256
	f := func() *big.Float { return new(big.Float).SetPrec(prec) }
	for i := range logC {
		c := f().Quo(f().SetInt64(int64(128+i)), f().SetInt64(128))
		u := f().Quo(f().Sub(c, f().SetInt64(1)), f().Add(c, f().SetInt64(1)))
		u2 := f().Mul(u, u)
		sum, pow := f(), f().Set(u)
		for k := int64(0); k < 100; k++ { // u ≤ 1/3: 100 terms pass 2^-300
			sum.Add(sum, f().Quo(pow, f().SetInt64(2*k+1)))
			pow.Mul(pow, u2)
		}
		want, _ := sum.Mul(sum, f().SetInt64(2)).Float64()
		if got := math.Float64frombits(logC[i]); got != want {
			t.Errorf("logC[%d] = %v, want %v (%#016x)", i, got, want, math.Float64bits(want))
		}
		if cf, _ := c.Float64(); logInvC[i] != 1/cf {
			t.Errorf("logInvC[%d] = %v, want 1/%v", i, logInvC[i], cf)
		}
	}
}

func FuzzSincos(f *testing.F) {
	for _, x := range []float64{0, 1, math.Pi / 4, 3 * math.Pi / 4, 1e5, trigReduceMax, -2, math.Inf(1), math.NaN()} {
		f.Add(x)
	}
	f.Fuzz(func(t *testing.T, x float64) {
		if msg := sincosMismatch(x); msg != "" {
			t.Fatal(msg)
		}
	})
}

func FuzzLogCompress(f *testing.F) {
	for _, v := range []float32{0, 0x1p-30, 0x1p-29, 0.4, 1, 3, 1e10, 0x1p53, -0.5, float32(math.Inf(1))} {
		f.Add(math.Float32bits(v))
	}
	f.Fuzz(func(t *testing.T, b uint32) {
		v := math.Float32frombits(b)
		if got, want := LogCompress(v), logCompressWant(v); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("LogCompress(%v [%#08x]) = %v, want %v", v, b, got, want)
		}
	})
}

// BenchmarkLogCompressAllFloat32 is the exhaustive check, too slow for
// go test: LogCompress against its definition on all 2^31 non-negative
// float32 bit patterns, split over the workers. Run it once with
//
//	go test -run '^$' -bench LogCompressAllFloat32 -benchtime 1x ./internal/tensor
//
// It fails on any mismatch and reports how many inputs fell back.
func BenchmarkLogCompressAllFloat32(b *testing.B) {
	for n := 0; n < b.N; n++ {
		var mismatches, fallbacks atomic.Int64
		var wg sync.WaitGroup
		w := Workers()
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func(lo, hi uint64) {
				defer wg.Done()
				var bad, fell int64
				for u := lo; u < hi; u++ {
					v := math.Float32frombits(uint32(u))
					if math.Float32bits(LogCompress(v)) != math.Float32bits(logCompressWant(v)) {
						bad++
					}
					if x := float64(v); x >= 0x1p-29 && x < 0x1p53 && nearFloat32Midpoint(log1pTable(x)) {
						fell++
					}
				}
				mismatches.Add(bad)
				fallbacks.Add(fell)
			}(uint64(k)<<31/uint64(w), uint64(k+1)<<31/uint64(w))
		}
		wg.Wait()
		b.ReportMetric(float64(mismatches.Load()), "mismatches")
		b.ReportMetric(float64(fallbacks.Load()), "fallbacks")
		if mismatches.Load() != 0 {
			b.Fatalf("%d of 2^31 non-negative float32 patterns differ from float32(math.Log1p(v)*0.5)", mismatches.Load())
		}
	}
}

// Noise-like inputs, seeded: what the generators feed these. Monotone
// inputs let math's branches predict and hide the difference.
func noiseArgs() (angles []float64, pixels []float32) {
	r := NewRNG(3)
	angles = make([]float64, 4096)
	pixels = make([]float32, 4096)
	for i := range angles {
		angles[i] = 2 * math.Pi * r.Float64()
		// |N(0,1)|·0.4, hep's calorimeter noise, plus a deposit on one
		// pixel in eight.
		v := math.Abs(r.Norm()) * 0.4
		if r.Intn(8) == 0 {
			v += 50 * r.Float64()
		}
		pixels[i] = float32(v)
	}
	return angles, pixels
}

func BenchmarkSincos(b *testing.B) {
	angles, _ := noiseArgs()
	var sink float64
	b.Run("math", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			x := angles[n&4095]
			sink += math.Sin(x) + math.Cos(x)
		}
	})
	b.Run("tensor", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			s, c := Sincos(angles[n&4095])
			sink += s + c
		}
	})
	b.Run("math/sin", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			sink += math.Sin(angles[n&4095])
		}
	})
	b.Run("tensor/sin", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			sink += Sin(angles[n&4095])
		}
	})
	_ = sink
}

func BenchmarkLogCompress(b *testing.B) {
	_, pixels := noiseArgs()
	var sink float32
	b.Run("math", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			sink += logCompressWant(pixels[n&4095])
		}
	})
	b.Run("tensor", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			sink += LogCompress(pixels[n&4095])
		}
	})
	_ = sink
}

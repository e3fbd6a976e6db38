package tensor

import (
	"fmt"
	"math"
	"testing"
)

// TestAdamStepBitwiseAcrossISAs holds every ISA body of the ADAM kernel to
// the Go body over several steps: the first step (m = v = 0), a moment v
// that is exactly 0 while m is not, subnormal and huge gradients, ±0 and
// ±Inf gradients, at lengths around each vector width.
func TestAdamStepBitwiseAcrossISAs(t *testing.T) {
	rng := NewRNG(37)
	const b1, b2 = float32(0.9), float32(0.999)
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 33, 67} {
		w, g := make([]float32, n), make([]float32, n)
		for i := range w {
			w[i] = float32(rng.Norm())
		}
		m, v := make([]float32, n), make([]float32, n)
		if n > 2 {
			m[2] = 0.5 // v = 0 beside m ≠ 0: the step is ±Inf
		}
		want := [4][]float32{append([]float32(nil), w...), append([]float32(nil), m...), append([]float32(nil), v...)}
		got := [4][]float32{make([]float32, n), make([]float32, n), make([]float32, n)}
		for step := 1; step <= 4; step++ {
			for i := range g {
				switch rng.Intn(8) {
				case 0:
					g[i] = math.Float32frombits(uint32(1 + rng.Intn(0x7fffff))) // subnormal
				case 1:
					g[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
				case 2:
					g[i] = float32(math.Inf(1 - 2*rng.Intn(2)))
				case 3:
					g[i] = float32(rng.Norm()) * 1e30
				default:
					g[i] = float32(rng.Norm())
				}
			}
			lr := float32(0.01 * math.Sqrt(1-math.Pow(float64(b2), float64(step))) / (1 - math.Pow(float64(b1), float64(step))))
			state := [3][]float32{append([]float32(nil), want[0]...), append([]float32(nil), want[1]...), append([]float32(nil), want[2]...)}
			adamGeneric(want[0], g, want[1], want[2], b1, 1-b1, b2, 1-b2, lr, 1e-8)
			withISAs(t, func(isa string) {
				for i := range got[:3] {
					copy(got[i], state[i])
				}
				AdamStep(got[0], g, got[1], got[2], b1, b2, lr, 1e-8)
				for i, name := range []string{"w", "m", "v"} {
					requireSameBits(t, fmt.Sprintf("AdamStep[%s] n=%d step %d %s", isa, n, step, name), got[i], want[i])
				}
			})
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AdamStep accepted a short moment")
		}
	}()
	AdamStep(make([]float32, 4), make([]float32, 4), make([]float32, 4), make([]float32, 3), b1, b2, 0.01, 1e-8)
}

// BenchmarkAdamStep times the ADAM kernel over climate-bench's ~370K
// parameters, one thread, under every kernel table the host has.
func BenchmarkAdamStep(b *testing.B) {
	const n = 370_000
	rng := NewRNG(3)
	w, g := randMat(rng, n), randMat(rng, n)
	m, v := make([]float32, n), make([]float32, n)
	for _, isa := range KernelISAs() {
		b.Run(isa, func(b *testing.B) {
			if err := SetKernels(isa); err != nil {
				b.Fatal(err)
			}
			defer SetKernels("auto")
			b.SetBytes(4 * 4 * n)
			for i := 0; i < b.N; i++ {
				AdamStep(w, g, m, v, 0.9, 0.999, 1e-3, 1e-8)
			}
		})
	}
}

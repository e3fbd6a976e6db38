package tensor

import "math"

// adam is the active ADAM update kernel: with c1 = 1−b1 and c2 = 1−b2,
// for every i < len(w),
//
//	m[i] = round(b1·m[i]) + round(c1·g[i])
//	v[i] = round(b2·v[i]) + round(round(c2·g[i])·g[i])
//	w[i] = w[i] − round(lr·m[i]) / (sqrt(v[i]) + eps)
//
// every operation rounded to float32 on its own. The AVX2 body (which
// AVX-512 hosts run too) is the same operations lane for lane: each product is rounded before its
// add (separate multiply and add, never FMA), and VSQRTPS and VDIVPS are
// correctly rounded, as the scalar body's float32 division is and as its
// float64 square root rounded to float32 is (53 ≥ 2·24+2 bits, so that
// double rounding is exact).
var adam = adamGeneric

func adamGeneric(w, g, m, v []float32, b1, c1, b2, c2, lr, eps float32) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i := range w {
		m[i] = float32(b1*m[i]) + float32(c1*g[i])
		v[i] = float32(b2*v[i]) + float32(float32(c2*g[i])*g[i])
		w[i] -= lr * m[i] / (float32(math.Sqrt(float64(v[i]))) + eps)
	}
}

// AdamStep applies one ADAM update in place to the weights w from the
// gradient g and the moments m and v: the decays b1 and b2, the
// bias-corrected rate lr and eps as the solver computed them. See adam
// for the arithmetic.
func AdamStep(w, g, m, v []float32, b1, b2, lr, eps float32) {
	if len(g) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic("tensor: AdamStep length mismatch")
	}
	adam(w, g, m, v, b1, 1-b1, b2, 1-b2, lr, eps)
}

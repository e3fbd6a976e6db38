package tensor

import "math"

// The data generators' hot transcendentals, bit for bit what package math
// returns, without math's data-dependent branches, which mispredict on
// noise-like inputs: math.Sin for climate's background modes, math.Log1p
// for the hep and astro log stretch, and the sine and cosine of every
// Box–Muller Norm were most of generation's CPU.

// Cody–Waite π/4 in three parts and the sine and cosine polynomials, as
// package math's sin.go has them.
const (
	pi4A = 7.85398125648498535156e-1  // 0x3fe921fb40000000
	pi4B = 3.77489470793079817668e-8  // 0x3e64442d00000000
	pi4C = 2.69515142907905952645e-15 // 0x3ce8469898cc5170

	// trigReduceMax is math's reduceThreshold: from it on, math reduces by
	// Payne–Hanek instead.
	trigReduceMax = 1 << 29
)

var sinCoef = [...]float64{
	1.58962301576546568060e-10, // 0x3de5d8fd1fd19ccd
	-2.50507477628578072866e-8, // 0xbe5ae5e5a9291f5d
	2.75573136213857245213e-6,  // 0x3ec71de3567d48a1
	-1.98412698295895385996e-4, // 0xbf2a01a019bfdf03
	8.33333333332211858878e-3,  // 0x3f8111111110f7d0
	-1.66666666666666307295e-1, // 0xbfc5555555555548
}

var cosCoef = [...]float64{
	-1.13585365213876817300e-11, // 0xbda8fa49a0861a9b
	2.08757008419747316778e-9,   // 0x3e21ee9d7b4e3f05
	-2.75573141792967388112e-7,  // 0xbe927e4f7eac4bc6
	2.48015872888517045348e-5,   // 0x3efa01a019c844f5
	-1.38888888888730564116e-3,  // 0xbf56c16c16c14f91
	4.16666666666665929218e-2,   // 0x3fa555555555554b
}

// Sincos returns math.Sin(x) and math.Cos(x), bit for bit. For
// 0 < x < 2^29 it is math's own sin/cos body, every float operation the
// same on the same operands: the same reduction to an octant, the same two
// polynomials in the same association. Only the choices differ: both
// polynomials are evaluated, and the octant's swap and signs are applied
// as bit masks instead of branches. Every other argument (x ≤ 0, NaN,
// ±Inf, x ≥ 2^29) goes to math.Sin and math.Cos themselves.
//
// The bits match wherever math.Sin and math.Cos run their Go bodies, which
// is every GOARCH but s390x (assembly there).
func Sincos(x float64) (sin, cos float64) {
	if !(x > 0 && x < trigReduceMax) {
		return math.Sin(x), math.Cos(x)
	}
	oct, s, c := sincosPolys(x)
	return octantSin(oct, s, c), octantSin((oct+2)&7, s, c)
}

// Sin returns math.Sin(x), bit for bit, as Sincos does.
func Sin(x float64) float64 {
	if !(x > 0 && x < trigReduceMax) {
		return math.Sin(x)
	}
	return octantSin(sincosPolys(x))
}

// octantSin applies math's octant rules for the sine to the two
// polynomials, as masks: octants 1 and 2 (mod 4) take the cosine's, and
// octants 4 to 7 negate. The cosine's rules are the sine's two octants on,
// as cos x = sin(x + π/2).
func octantSin(oct uint64, s, c float64) float64 {
	swap := -((oct ^ oct>>1) & 1)
	sb, cb := math.Float64bits(s), math.Float64bits(c)
	return math.Float64frombits((sb&^swap | cb&swap) ^ oct>>2<<63)
}

// sincosPolys reduces 0 < x < 2^29 to z in [-π/4, π/4] and its octant
// (mod 8) as math's sin and cos do, and returns both polynomials at z: s
// for sin(z), c for cos(z).
func sincosPolys(x float64) (oct uint64, s, c float64) {
	j := uint64(x * (4 / math.Pi)) // integer part of x/(π/4)
	j += j & 1                     // map zeros to origin: math's j++, y++ on odd j
	y := float64(j)
	z := ((x - y*pi4A) - y*pi4B) - y*pi4C
	zz := z * z
	s = z + z*zz*((((((sinCoef[0]*zz)+sinCoef[1])*zz+sinCoef[2])*zz+sinCoef[3])*zz+sinCoef[4])*zz+sinCoef[5])
	c = 1.0 - 0.5*zz + zz*zz*((((((cosCoef[0]*zz)+cosCoef[1])*zz+cosCoef[2])*zz+cosCoef[3])*zz+cosCoef[4])*zz+cosCoef[5])
	return j & 7, s, c
}

// LogCompress returns float32(math.Log1p(float64(v)) * 0.5), bit for bit:
// the hep and astro images' log stretch.
//
// For 2^-29 ≤ v < 2^53, 1+v is exact in float64 (v has 24 significant
// bits), so log1p(v) = log(1+v) = e·ln2 + log(m), with 1+v = m·2^e. With c
// the nearest of 1, 1+1/128, …, 2 to m, log(m) = log(c) + log1p(r) for
// r = (m−c)·(1/c), |r| ≤ 2^-8, and seven terms of log1p's series leave a
// few float64 ulps of error. Both this sum and math.Log1p's are then
// within a few ulps of the true value, so their float32 roundings agree
// unless the value is near a float32 rounding midpoint: within
// logGuard float64 ulps of one, and outside the range, the result is
// math.Log1p's own. An exhaustive sweep of every non-negative float32
// (EXPERIMENTS.md) finds no mismatch; about one value in 2^18 falls back.
func LogCompress(v float32) float32 {
	x := float64(v)
	if !(x >= 0x1p-29 && x < 0x1p53) {
		if v == 0 {
			return v // log1p(±0)/2 is the same ±0
		}
		return float32(math.Log1p(x) * 0.5)
	}
	l := log1pTable(x)
	if nearFloat32Midpoint(l) {
		return float32(math.Log1p(x) * 0.5)
	}
	return float32(l * 0.5)
}

// log1pTable is log(1+x) from the table and the series, for
// 2^-29 ≤ x < 2^53.
func log1pTable(x float64) float64 {
	b := math.Float64bits(1 + x)
	frac := b & (1<<52 - 1)
	i := (frac + 1<<44) >> 45 // m's top 7 fraction bits, rounded: 0…128
	m := math.Float64frombits(frac | 0x3ff<<52)
	c := math.Float64frombits(0x3ff<<52 + i<<45) // 1 + i/128, exactly
	r := (m - c) * logInvC[i]                    // m − c is exact
	p := r - r*r*(0.5-r*(1.0/3-r*(0.25-r*(0.2-r*(1.0/6-r*(1.0/7))))))
	return float64(int64(b>>52)-1023)*math.Ln2 + math.Float64frombits(logC[i]) + p
}

// nearFloat32Midpoint reports whether a positive l, whose float32 rounding
// is normal, lies within logGuard float64 ulps of a float32 rounding
// midpoint: the 29 fraction bits float32 drops read near 1<<28.
func nearFloat32Midpoint(l float64) bool {
	return math.Float64bits(l)&(1<<29-1)-(1<<28-logGuard) <= 2*logGuard
}

// logGuard is the distance, in float64 ulps, from a float32 rounding
// midpoint within which the table sum is not trusted to round as
// math.Log1p's does. Both are within a few ulps of the true value (the
// strided test measures at most 2); the guard leaves two orders of
// magnitude to spare.
const logGuard = 1 << 10

// logC[i] is log(1 + i/128), correctly rounded (TestLogCTable recomputes
// it in 256-bit arithmetic), so the sum does not depend on a platform's
// math.Log.
var logC = [129]uint64{
	0x0000000000000000, 0x3f7fe02a6b106789, 0x3f8fc0a8b0fc03e4, 0x3f97b91b07d5b11b,
	0x3f9f829b0e783300, 0x3fa39e87b9febd60, 0x3fa77458f632dcfc, 0x3fab42dd711971bf,
	0x3faf0a30c01162a6, 0x3fb16536eea37ae1, 0x3fb341d7961bd1d1, 0x3fb51b073f06183f,
	0x3fb6f0d28ae56b4c, 0x3fb8c345d6319b21, 0x3fba926d3a4ad563, 0x3fbc5e548f5bc743,
	0x3fbe27076e2af2e6, 0x3fbfec9131dbeabb, 0x3fc0d77e7cd08e59, 0x3fc1b72ad52f67a0,
	0x3fc29552f81ff523, 0x3fc371fc201e8f74, 0x3fc44d2b6ccb7d1e, 0x3fc526e5e3a1b438,
	0x3fc5ff3070a793d4, 0x3fc6d60fe719d21d, 0x3fc7ab890210d909, 0x3fc87fa06520c911,
	0x3fc9525a9cf456b4, 0x3fca23bc1fe2b563, 0x3fcaf3c94e80bff3, 0x3fcbc286742d8cd6,
	0x3fcc8ff7c79a9a22, 0x3fcd5c216b4fbb91, 0x3fce27076e2af2e6, 0x3fcef0adcbdc5936,
	0x3fcfb9186d5e3e2b, 0x3fd0402594b4d041, 0x3fd0a324e27390e3, 0x3fd1058bf9ae4ad5,
	0x3fd1675cababa60e, 0x3fd1c898c16999fb, 0x3fd22941fbcf7966, 0x3fd2895a13de86a3,
	0x3fd2e8e2bae11d31, 0x3fd347dd9a987d55, 0x3fd3a64c556945ea, 0x3fd404308686a7e4,
	0x3fd4618bc21c5ec2, 0x3fd4be5f957778a1, 0x3fd51aad872df82d, 0x3fd5767717455a6c,
	0x3fd5d1bdbf5809ca, 0x3fd62c82f2b9c795, 0x3fd686c81e9b14af, 0x3fd6e08eaa2ba1e4,
	0x3fd739d7f6bbd007, 0x3fd792a55fdd47a2, 0x3fd7eaf83b82afc3, 0x3fd842d1da1e8b17,
	0x3fd89a3386c1425b, 0x3fd8f11e873662c7, 0x3fd947941c2116fb, 0x3fd99d958117e08b,
	0x3fd9f323ecbf984c, 0x3fda484090e5bb0a, 0x3fda9cec9a9a084a, 0x3fdaf1293247786b,
	0x3fdb44f77bcc8f63, 0x3fdb9858969310fb, 0x3fdbeb4d9da71b7c, 0x3fdc3dd7a7cdad4d,
	0x3fdc8ff7c79a9a22, 0x3fdce1af0b85f3eb, 0x3fdd32fe7e00ebd5, 0x3fdd83e7258a2f3e,
	0x3fddd46a04c1c4a1, 0x3fde24881a7c6c26, 0x3fde744261d68788, 0x3fdec399d2468cc0,
	0x3fdf128f5faf06ed, 0x3fdf6123fa7028ac, 0x3fdfaf588f78f31f, 0x3fdffd2e0857f498,
	0x3fe02552a5a5d0ff, 0x3fe04bdf9da926d2, 0x3fe0723e5c1cdf40, 0x3fe0986f4f573521,
	0x3fe0be72e4252a83, 0x3fe0e44985d1cc8c, 0x3fe109f39e2d4c97, 0x3fe12f719593efbc,
	0x3fe154c3d2f4d5ea, 0x3fe179eabbd899a1, 0x3fe19ee6b467c96f, 0x3fe1c3b81f713c25,
	0x3fe1e85f5e7040d0, 0x3fe20cdcd192ab6e, 0x3fe23130d7bebf43, 0x3fe2555bce98f7cb,
	0x3fe2795e1289b11b, 0x3fe29d37fec2b08b, 0x3fe2c0e9ed448e8c, 0x3fe2e47436e40268,
	0x3fe307d7334f10be, 0x3fe32b1339121d71, 0x3fe34e289d9ce1d3, 0x3fe37117b54747b6,
	0x3fe393e0d3562a1a, 0x3fe3b68449fffc23, 0x3fe3d9026a7156fb, 0x3fe3fb5b84d16f42,
	0x3fe41d8fe84672ae, 0x3fe43f9fe2f9ce67, 0x3fe4618bc21c5ec2, 0x3fe48353d1ea88df,
	0x3fe4a4f85db03ebb, 0x3fe4c679afccee3a, 0x3fe4e7d811b75bb1, 0x3fe50913cc01686b,
	0x3fe52a2d265bc5ab, 0x3fe54b2467999498, 0x3fe56bf9d5b3f399, 0x3fe58cadb5cd7989,
	0x3fe5ad404c359f2d, 0x3fe5cdb1dc6c1765, 0x3fe5ee02a9241675, 0x3fe60e32f44788d9,
	0x3fe62e42fefa39ef,
}

// logInvC[i] is 1/(1 + i/128): one IEEE division each, here, so the hot
// path has none.
var logInvC = func() (t [129]float64) {
	for i := range t {
		t[i] = 1 / (1 + float64(i)/128)
	}
	return t
}()

package tensor

import "math"

// RNG is a small deterministic pseudo-random generator (SplitMix64 core with
// a cached-Gaussian Box–Muller transform). Every stochastic component in the
// repository — data generators, weight init, the cluster simulator's jitter
// draws — takes an explicit *RNG so runs are reproducible and independent
// streams can be split without global state.
type RNG struct {
	state     uint64
	haveGauss bool
	gauss     float64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split derives an independent child stream from the current state. The
// child's sequence does not overlap the parent's for practical purposes
// (distinct SplitMix64 gamma-mixed seeds).
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0,1). Here and below a product that
// feeds an add or subtract is converted first: the conversion rounds it, so
// the compiler may not fuse the pair (see axpy.go), and a seed draws the
// same values on every machine.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / float64(1<<53))
}

// Float32 returns a uniform value in [0,1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / float32(1<<24)
}

// Intn returns a uniform integer in [0,n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal draw.
func (r *RNG) Norm() float64 {
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	// Box–Muller; u1 in (0,1] so the log is finite.
	u1 := 1.0 - r.Float64()
	u2 := r.Float64()
	m := math.Sqrt(-2 * math.Log(u1))
	r.gauss = m * math.Sin(2*math.Pi*u2)
	r.haveGauss = true
	return m * math.Cos(2*math.Pi*u2)
}

// LogNormal returns exp(N(mu, sigma^2)); used by the cluster simulator for
// compute and message-latency jitter multipliers.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + float64(sigma*r.Norm()))
}

// Exp returns an exponential draw with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := 1.0 - r.Float64()
	return -mean * math.Log(u)
}

// Poisson returns a Poisson draw with the given mean (Knuth's method for
// small means, normal approximation above 64 — adequate for event counts).
func (r *RNG) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 64 {
		n := int(mean + float64(math.Sqrt(mean)*r.Norm()) + 0.5)
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Perm returns a random permutation of [0,n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// FillNorm fills t with N(mean, std^2) draws.
func (r *RNG) FillNorm(t *Tensor, mean, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(mean + float64(std*r.Norm()))
	}
}

// FillUniform fills t with uniform draws in [lo,hi).
func (r *RNG) FillUniform(t *Tensor, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = float32(lo + float64((hi-lo)*r.Float64()))
	}
}

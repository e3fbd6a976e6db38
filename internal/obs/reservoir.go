package obs

import "sort"

// Reservoir keeps a bounded uniform sample of a float64 stream for
// quantile estimation: Vitter's Algorithm R. After n observations every
// value has had probability k/n of being retained, so quantiles estimate
// the whole stream. This fixes the bias of the old serve latency ring,
// which — once wrapped — only ever reflected the most recent k
// completions.
//
// Not goroutine-safe; callers already serialise observations (the serve
// metrics mutex). Add is allocation-free after construction.
type Reservoir struct {
	vals []float64
	n    int64 // observations ever offered
	rng  uint64
}

// NewReservoir builds a reservoir of capacity k.
// The seed makes replacement decisions deterministic for tests; any
// value is fine (splitmix64 scrambles it).
func NewReservoir(k int, seed uint64) *Reservoir {
	if k <= 0 {
		k = 1
	}
	return &Reservoir{vals: make([]float64, 0, k), rng: seed}
}

// splitmix64 advances the internal RNG state and returns the next word.
func (r *Reservoir) splitmix64() uint64 {
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add offers v to the reservoir.
func (r *Reservoir) Add(v float64) {
	if r == nil {
		return
	}
	r.n++
	if len(r.vals) < cap(r.vals) {
		r.vals = append(r.vals, v)
		return
	}
	// Algorithm R: keep v with probability k/n, evicting a uniform slot.
	j := r.splitmix64() % uint64(r.n)
	if j < uint64(cap(r.vals)) {
		r.vals[j] = v
	}
}

// Count returns how many observations have been offered (not retained).
func (r *Reservoir) Count() int64 {
	if r == nil {
		return 0
	}
	return r.n
}

// Reset empties the reservoir (RNG state carries on).
func (r *Reservoir) Reset() {
	if r == nil {
		return
	}
	r.vals = r.vals[:0]
	r.n = 0
}

// Sorted returns a sorted copy of the retained sample.
func (r *Reservoir) Sorted() []float64 {
	if r == nil || len(r.vals) == 0 {
		return nil
	}
	out := append([]float64(nil), r.vals...)
	sort.Float64s(out)
	return out
}

// Quantile returns the nearest-rank q-quantile (0..1) of the retained
// sample, 0 when empty.
func (r *Reservoir) Quantile(q float64) float64 {
	return QuantileSorted(r.Sorted(), q)
}

// QuantileSorted returns the nearest-rank q-quantile of an
// already-sorted slice (0 when empty).
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

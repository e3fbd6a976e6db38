package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is the shared metrics substrate: named counters, gauges and
// fixed-bucket histograms. Instrument lookup (Counter/Gauge/Histogram)
// takes a mutex and may allocate — do it at setup time and hold the
// pointer; every write path on a held instrument is atomic and
// allocation-free. A nil *Registry hands out nil instruments whose
// methods no-op, mirroring the tracer's off switch.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use. Bounds must be strictly increasing;
// an implicit +Inf bucket catches the overflow. Re-registering an
// existing name returns the original histogram (bounds ignored), so
// adapters can share one instrument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of every instrument, maps keyed by
// name. Histogram values are HistogramSnapshot copies — mutating them
// does not touch the live registry.
type Snapshot struct {
	Counters   map[string]int64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Snapshot copies the registry out. Writes racing the snapshot land in
// either side; each individual value is read atomically.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counts {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// Line renders the snapshot as one stable "k=v k=v ..." line (keys
// sorted; histograms contribute their count and mean) — the periodic
// dump format the cmds print.
func (s Snapshot) Line() string {
	keys := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	vals := map[string]string{}
	for k, v := range s.Counters {
		keys = append(keys, k)
		vals[k] = fmt.Sprintf("%d", v)
	}
	for k, v := range s.Gauges {
		keys = append(keys, k)
		vals[k] = fmt.Sprintf("%.4g", v)
	}
	for k, h := range s.Histograms {
		keys = append(keys, k)
		vals[k] = fmt.Sprintf("n=%d mean=%.4g", h.Count, h.Mean())
	}
	sort.Strings(keys)
	out := ""
	for i, k := range keys {
		if i > 0 {
			out += " "
		}
		out += k + "=" + vals[k]
	}
	return out
}

// Counter is a monotonically increasing atomic int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Reset zeroes the counter (benchmark warmup boundaries; production
// counters normally only grow).
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.v.Store(0)
}

// Gauge is an atomic float64 (bits in an atomic.Uint64). Set is a plain
// store; Add and Max are CAS loops — contended writers retry but never
// lock or allocate.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add atomically adds d.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+d)) {
			return
		}
	}
}

// Max atomically raises the gauge to v if v is larger.
func (g *Gauge) Max(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets. bounds are upper
// bounds (inclusive: an observation lands in the first bucket whose
// bound is >= v, matching Prometheus's `le` convention); counts has
// len(bounds)+1 slots, the last catching v > bounds[len-1]. Observe is
// atomic and allocation-free. Sum and count track the full distribution
// regardless of bucketing.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	count  atomic.Int64
	sum    Gauge
}

// NewHistogram builds a histogram with the given strictly increasing
// upper bounds. Panics on unsorted bounds — a construction-time bug,
// not a runtime condition.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// Observe records v. Bucket search is linear — bucket counts in this
// repo are ~10-20, where linear beats binary on branch prediction.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Reset empties every bucket, the count and the sum (the histogram twin of
// Counter.Reset). Observations racing a Reset may land on either side.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Set(0)
}

// HistogramSnapshot is a stable copy of a histogram's state.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds; Counts has one extra +Inf slot
	Counts []int64
	Count  int64
	Sum    float64
}

// Snapshot copies the histogram out.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Value(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Mean returns Sum/Count (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

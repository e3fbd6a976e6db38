package obs

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestPhaseNames(t *testing.T) {
	names := PhaseNames()
	if len(names) != int(NumPhases) {
		t.Fatalf("PhaseNames len %d, want %d", len(names), NumPhases)
	}
	want := []string{"Ingest", "Fwd", "Bwd", "CommWait", "OptApply", "CkptStage", "Queue", "Batch", "Infer"}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("phase %d = %q, want %q", i, names[i], w)
		}
		if Phase(i).String() != w {
			t.Errorf("Phase(%d).String() = %q, want %q", i, Phase(i).String(), w)
		}
	}
	if got := Phase(200).String(); got != "Phase(200)" {
		t.Errorf("out-of-range phase String = %q", got)
	}
}

func TestLaneRecordsSpans(t *testing.T) {
	tr := NewTracer(16)
	l := tr.Lane("w0")
	l.SetIter(3)
	l.Begin(PhaseFwd)
	time.Sleep(time.Millisecond)
	l.End(PhaseFwd)
	l.SetIter(4)
	l.Record(PhaseCommWait, 100, 250)

	snap := tr.Snapshot()
	if len(snap) != 1 || snap[0].Name != "w0" {
		t.Fatalf("snapshot = %+v", snap)
	}
	sp := snap[0].Spans
	if len(sp) != 2 {
		t.Fatalf("got %d spans, want 2", len(sp))
	}
	if sp[0].Phase != PhaseFwd || sp[0].Iter != 3 || sp[0].Dur() <= 0 {
		t.Errorf("span 0 = %+v", sp[0])
	}
	if sp[1].Phase != PhaseCommWait || sp[1].Iter != 4 || sp[1].Dur() != 150 {
		t.Errorf("span 1 = %+v", sp[1])
	}
	if sp[1].Seconds() != 150e-9 {
		t.Errorf("Seconds = %g", sp[1].Seconds())
	}
}

func TestLaneRingWrap(t *testing.T) {
	tr := NewTracer(4)
	l := tr.Lane("w")
	for i := 0; i < 10; i++ {
		l.Record(PhaseInfer, int64(i), int64(i)+1)
	}
	ls := tr.Snapshot()[0]
	if ls.Dropped != 6 {
		t.Fatalf("Dropped = %d, want 6", ls.Dropped)
	}
	if len(ls.Spans) != 4 {
		t.Fatalf("kept %d spans, want 4", len(ls.Spans))
	}
	for i, s := range ls.Spans {
		if s.StartNs != int64(6+i) {
			t.Errorf("span %d start %d, want %d (oldest-first order)", i, s.StartNs, 6+i)
		}
	}
}

func TestTracerLaneIdentityAndSort(t *testing.T) {
	tr := NewTracer(8)
	b := tr.Lane("b")
	a := tr.Lane("a")
	if tr.Lane("b") != b {
		t.Fatal("Lane not idempotent")
	}
	if a.Name() != "a" || a.Tracer() != tr {
		t.Fatal("lane accessors wrong")
	}
	snap := tr.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "b" {
		t.Fatalf("snapshot not name-sorted: %+v", snap)
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	l := tr.Lane("x")
	if l != nil {
		t.Fatal("nil tracer should hand out nil lanes")
	}
	// All of these must be no-ops, not panics.
	l.SetIter(1)
	l.Begin(PhaseFwd)
	l.End(PhaseFwd)
	l.Record(PhaseFwd, 0, 1)
	if l.Name() != "" || l.Tracer() != nil {
		t.Fatal("nil lane accessors")
	}
	if tr.Now() != 0 || tr.At(time.Now()) != 0 {
		t.Fatal("nil tracer clock")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer snapshot")
	}
	if err := tr.WriteTraceFile("/nonexistent/should-not-be-written"); err != nil {
		t.Fatal("nil tracer WriteTraceFile should no-op")
	}
}

func TestTraceHotPathZeroAlloc(t *testing.T) {
	tr := NewTracer(1 << 10)
	l := tr.Lane("hot")
	l.SetIter(1)
	if n := testing.AllocsPerRun(200, func() {
		l.Begin(PhaseFwd)
		l.End(PhaseFwd)
		l.Record(PhaseCommWait, 1, 2)
		l.SetIter(2)
	}); n != 0 {
		t.Fatalf("traced hot path allocates %v/op, want 0", n)
	}
	var nilLane *Lane
	if n := testing.AllocsPerRun(200, func() {
		nilLane.Begin(PhaseFwd)
		nilLane.End(PhaseFwd)
	}); n != 0 {
		t.Fatalf("nil lane allocates %v/op, want 0", n)
	}
}

func TestSnapshotConcurrentWithRecording(t *testing.T) {
	tr := NewTracer(64)
	l := tr.Lane("w")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				l.Record(PhaseInfer, int64(i), int64(i)+1)
			}
		}
	}()
	for i := 0; i < 50; i++ {
		for _, ls := range tr.Snapshot() {
			for _, s := range ls.Spans {
				if s.Dur() != 1 {
					t.Errorf("torn span: %+v", s)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestRegistryInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 || r.Counter("reqs") != c {
		t.Fatalf("counter = %d", c.Value())
	}
	g := r.Gauge("rate")
	g.Set(2.5)
	g.Add(0.5)
	g.Max(1.0) // lower — no effect
	g.Max(7.0)
	if g.Value() != 7.0 {
		t.Fatalf("gauge = %g", g.Value())
	}
	h := r.Histogram("lat", []float64{1, 2, 4})
	h.Observe(0.5)
	h.Observe(3)
	if r.Histogram("lat", nil) != h {
		t.Fatal("histogram not idempotent")
	}
	s := r.Snapshot()
	if s.Counters["reqs"] != 5 || s.Gauges["rate"] != 7.0 || s.Histograms["lat"].Count != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	line := s.Line()
	want := "lat=n=2 mean=1.75 rate=7 reqs=5"
	if line != want {
		t.Fatalf("Line() = %q, want %q", line, want)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", nil)
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry should hand out nil instruments")
	}
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.Add(1)
	g.Max(1)
	h.Observe(1)
	h.Reset()
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instrument reads")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Fatal("nil registry snapshot")
	}
}

func TestRegistryWritesZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 10, 100})
	if n := testing.AllocsPerRun(200, func() {
		c.Add(1)
		g.Set(1)
		g.Add(1)
		g.Max(2)
		h.Observe(5)
	}); n != 0 {
		t.Fatalf("registry write path allocates %v/op, want 0", n)
	}
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound ("le")
// assignment: an observation equal to a bound lands in that bound's
// bucket; just above moves to the next; above the last bound lands in
// the overflow slot.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	cases := []struct {
		v      float64
		bucket int
	}{
		{0, 0}, {0.999, 0}, {1, 0}, // v <= 1
		{math.Nextafter(1, 2), 1}, {2, 1}, // 1 < v <= 2
		{3, 2}, {4, 2}, // 2 < v <= 4
		{math.Nextafter(4, 5), 3}, {1e9, 3}, // overflow
	}
	for _, c := range cases {
		before := h.Snapshot().Counts[c.bucket]
		h.Observe(c.v)
		after := h.Snapshot().Counts[c.bucket]
		if after != before+1 {
			t.Errorf("Observe(%v): bucket %d went %d -> %d, want +1", c.v, c.bucket, before, after)
		}
	}
	s := h.Snapshot()
	if s.Count != int64(len(cases)) {
		t.Fatalf("Count = %d, want %d", s.Count, len(cases))
	}
	if len(s.Counts) != 4 {
		t.Fatalf("Counts len = %d, want 4 (3 bounds + overflow)", len(s.Counts))
	}
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || slices.ContainsFunc(s.Counts, func(c int64) bool { return c != 0 }) {
		t.Fatalf("after Reset: %+v, want every bucket, the count and the sum at 0", s)
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds should panic at construction")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	for i := 0; i < 100; i++ {
		h.Observe(float64(i % 40))
	}
	s := h.Snapshot()
	// 0..9 land <=10 bucket (plus 10 itself): uniform over 0..39 means
	// the median is ~20; interpolation should put it in [10, 30].
	q50 := s.Quantile(0.5)
	if q50 < 10 || q50 > 30 {
		t.Errorf("q50 = %g, want within [10, 30]", q50)
	}
	if q := s.Quantile(1.0); q < 30 {
		t.Errorf("q100 = %g, want >= 30 (overflow bucket lower bound)", q)
	}
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty snapshot quantile/mean should be 0")
	}
}

func TestReservoirUniformCoversWholeStream(t *testing.T) {
	const k, n = 256, 100000
	r := NewReservoir(k, 42)
	for i := 0; i < n; i++ {
		r.Add(float64(i))
	}
	if r.Count() != n {
		t.Fatalf("Count = %d", r.Count())
	}
	vals := r.Sorted()
	if len(vals) != k {
		t.Fatalf("retained %d, want %d", len(vals), k)
	}
	// A uniform sample of 0..n-1 has mean ~n/2 and must include early
	// values; the old biased ring would retain only the last k values
	// (mean ~n-k/2, min ~n-k).
	var sum float64
	for _, v := range vals {
		sum += v
	}
	mean := sum / k
	if mean < 0.4*n || mean > 0.6*n {
		t.Errorf("uniform reservoir mean %g, want ~%d", mean, n/2)
	}
	if vals[0] > n/10 {
		t.Errorf("min retained %g — early stream lost, sampling is biased", vals[0])
	}
	med := r.Quantile(0.5)
	if med < 0.35*n || med > 0.65*n {
		t.Errorf("median %g, want ~%d", med, n/2)
	}
}

func TestReservoirResetAndNil(t *testing.T) {
	r := NewReservoir(4, 1)
	r.Add(1)
	r.Reset()
	if r.Count() != 0 || len(r.Sorted()) != 0 || r.Quantile(0.5) != 0 {
		t.Fatal("reset did not clear")
	}
	var nr *Reservoir
	nr.Add(1)
	nr.Reset()
	if nr.Count() != 0 || nr.Sorted() != nil {
		t.Fatal("nil reservoir")
	}
}

func TestReservoirAddZeroAlloc(t *testing.T) {
	r := NewReservoir(64, 7)
	for i := 0; i < 128; i++ { // past capacity so Add hits the steady path
		r.Add(float64(i))
	}
	if n := testing.AllocsPerRun(200, func() { r.Add(1) }); n != 0 {
		t.Fatalf("reservoir Add allocates %v/op, want 0", n)
	}
}

func TestQuantileSortedEdges(t *testing.T) {
	if QuantileSorted(nil, 0.5) != 0 {
		t.Error("empty")
	}
	s := []float64{1, 2, 3, 4}
	if QuantileSorted(s, 0) != 1 || QuantileSorted(s, 1) != 4 {
		t.Error("extremes")
	}
	if QuantileSorted(s, 0.5) != 3 { // nearest-rank int(0.5*4)=2
		t.Errorf("q50 = %g", QuantileSorted(s, 0.5))
	}
}

package serve

import (
	"testing"
	"time"

	"deep15pf/internal/obs"
)

// TestUniformLatencySamplingIsUnbiased is the reservoir-fix regression:
// feed more than latWindow latencies where the first 3/4 are fast and the
// last 1/4 slow. The old ring overwrite retained only the most recent
// 64k completions once wrapped, so its "lifetime" p50 saw mostly the slow
// tail. The uniform reservoir's p50 must stay fast.
func TestUniformLatencySamplingIsUnbiased(t *testing.T) {
	const total = 2 * latWindow // wraps the old ring
	feed := func(m *metrics) {
		lats := make([]float64, 64)
		for sent := 0; sent < total; {
			for i := range lats {
				if sent+i < (3*total)/4 {
					lats[i] = 1e-4 // fast three quarters
				} else {
					lats[i] = 1e-1 // slow final quarter
				}
			}
			m.recordBatch(len(lats), time.Microsecond, 0, lats)
			sent += len(lats)
		}
	}

	uni := newMetrics("")
	feed(uni)
	s := uni.snapshot()
	if s.Requests != total {
		t.Fatalf("requests = %d, want %d", s.Requests, total)
	}
	// 3/4 of the stream is fast: a uniform sample's p50 is the fast value.
	// (The old ring's retained window at this point is half slow, so its
	// p50 was the slow value — the bias this fix removes.)
	if got := s.P50.Seconds(); got > 1e-3 {
		t.Errorf("uniform p50 = %v — sample is biased toward the recent slow tail", s.P50)
	}
	// The tail is real: p95 must see the slow quarter.
	if got := s.P95.Seconds(); got < 1e-2 {
		t.Errorf("uniform p95 = %v — slow tail missing from sample", s.P95)
	}
}

// TestMetricsResetClearsEverything: counters, gauges and the reservoir
// all restart (including the reservoir's observation count — a stale
// count would skew Algorithm R's retention probability).
func TestMetricsResetClearsEverything(t *testing.T) {
	m := newMetrics("")
	m.recordBatch(4, time.Millisecond, 100, []float64{1e-3, 2e-3, 3e-3, 4e-3})
	m.reset()
	s := m.snapshot()
	if s.Requests != 0 || s.Batches != 0 || s.MaxBatch != 0 || s.FLOPs != 0 ||
		s.InferSeconds != 0 || s.PeakFlopRate != 0 || s.P50 != 0 {
		t.Fatalf("reset left state behind: %+v", s)
	}
	if n := m.lat.Count(); n != 0 {
		t.Fatalf("reservoir count %d after reset", n)
	}
}

// TestServerRegistryExposesCounters: the Metrics() registry carries the
// same numbers the Stats snapshot reports.
func TestServerRegistryExposesCounters(t *testing.T) {
	s, inputs := loadTinyServer(t, Config{MaxBatch: 4, Workers: 1})
	for _, in := range inputs[:8] {
		if _, err := s.Submit(in.X); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // the worker answers before it records the batch
	snap := s.Metrics().Snapshot()
	if got := snap.Counters["serve.requests"]; got != 8 {
		t.Errorf("registry serve.requests = %d, want 8", got)
	}
	if snap.Counters["serve.batches"] < 2 {
		t.Errorf("registry serve.batches = %d, want >= 2", snap.Counters["serve.batches"])
	}
	if h := snap.Histograms["serve.latency_s"]; h.Count != 8 {
		t.Errorf("latency histogram count = %d, want 8", h.Count)
	}
	if stats := s.Stats(); stats.Requests != 8 {
		t.Errorf("Stats.Requests = %d, want 8", stats.Requests)
	}
}

// TestServerTraceRecordsRequestPhases: a traced server leaves per-worker
// lanes with Queue, Batch and Infer spans whose ordering is sane (queue
// precedes inference on the same batch).
func TestServerTraceRecordsRequestPhases(t *testing.T) {
	tr := obs.NewTracer(0)
	s, inputs := loadTinyServer(t, Config{MaxBatch: 4, Workers: 2, Trace: tr})
	for round := 0; round < 3; round++ {
		for _, in := range inputs[:8] {
			if _, err := s.Submit(in.X); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("got %d lanes, want 2 serve workers", len(snap))
	}
	var counts [obs.NumPhases]int
	for _, ls := range snap {
		if ls.Name != "serve.w0" && ls.Name != "serve.w1" {
			t.Errorf("unexpected lane %q", ls.Name)
		}
		for _, sp := range ls.Spans {
			counts[sp.Phase]++
			if sp.Dur() < 0 {
				t.Errorf("%s: negative span %+v", ls.Name, sp)
			}
		}
	}
	for _, ph := range []obs.Phase{obs.PhaseQueue, obs.PhaseBatch, obs.PhaseInfer} {
		if counts[ph] == 0 {
			t.Errorf("no %s spans recorded", ph)
		}
	}
	if counts[obs.PhaseQueue] != counts[obs.PhaseInfer] || counts[obs.PhaseBatch] != counts[obs.PhaseInfer] {
		t.Errorf("span counts diverge per batch: queue=%d batch=%d infer=%d",
			counts[obs.PhaseQueue], counts[obs.PhaseBatch], counts[obs.PhaseInfer])
	}
}

// TestServerRegistryCarriesPerModelLabels: the same traffic is also
// accounted under architecture-labelled instrument names, so a model zoo
// scraping several servers' registries can tell the workloads apart. The
// unlabelled base names stay untouched (the test above pins them).
func TestServerRegistryCarriesPerModelLabels(t *testing.T) {
	s, inputs := loadTinyServer(t, Config{MaxBatch: 4, Workers: 1})
	for _, in := range inputs[:8] {
		if _, err := s.Submit(in.X); err != nil {
			t.Fatal(err)
		}
	}
	s.Close() // the worker answers before it records the batch
	snap := s.Metrics().Snapshot()
	if got := snap.Counters["serve.requests.model.tiny"]; got != 8 {
		t.Errorf("serve.requests.model.tiny = %d, want 8", got)
	}
	if got := snap.Counters["serve.batches.model.tiny"]; got < 2 || got != snap.Counters["serve.batches"] {
		t.Errorf("serve.batches.model.tiny = %d, want the base count %d",
			got, snap.Counters["serve.batches"])
	}
	if h := snap.Histograms["serve.latency_s.model.tiny"]; h.Count != 8 {
		t.Errorf("per-model latency histogram count = %d, want 8", h.Count)
	}
	s.ResetStats()
	// /metrics must agree with Stats() after a reset: the latency
	// histograms empty with the counters.
	snap = s.Metrics().Snapshot()
	if got := snap.Counters["serve.requests.model.tiny"]; got != 0 {
		t.Errorf("per-model request counter %d after reset, want 0", got)
	}
	for _, name := range []string{"serve.latency_s", "serve.latency_s.model.tiny"} {
		if h := snap.Histograms[name]; h.Count != 0 || h.Sum != 0 {
			t.Errorf("%s holds %d observations (sum %g) after reset, want 0", name, h.Count, h.Sum)
		}
	}
}

func TestFormatFlops(t *testing.T) {
	cases := map[float64]string{
		15.07e15: "15.07 PFLOP/s",
		1.9e12:   "1.90 TFLOP/s",
		3.5e9:    "3.50 GFLOP/s",
		2e6:      "2.00 MFLOP/s",
	}
	for rate, want := range cases {
		if got := FormatFlops(rate); got != want {
			t.Fatalf("FormatFlops(%v) = %q, want %q", rate, got, want)
		}
	}
}

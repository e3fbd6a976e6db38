package serve

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"deep15pf/internal/obs"
)

// latWindow bounds the latency reservoir: counters cover the server's
// whole lifetime, while the quantile sample holds at most this many
// latencies. 64k samples keeps a long-running server's snapshot cost flat
// without blunting the tail at demo scale.
const latWindow = 1 << 16

// latencyBuckets are the registry histogram's upper bounds (seconds):
// 10µs to ~10s in half-decade steps — coarse operational visibility; the
// reservoir carries the precise quantiles.
var latencyBuckets = []float64{
	1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1, 3, 10,
}

// metrics is the shared accounting the workers write into, built on the
// obs substrate: counters and gauges in a per-server obs.Registry (so the
// -debug-addr /metrics endpoint and the periodic dump read the same
// numbers the snapshot does) plus a latency reservoir for quantiles.
//
// One mutex still serialises recordBatch: a record is tens of nanoseconds
// against an inference that is microseconds at minimum, per-batch records
// amortise further, and the reservoir needs the serialisation anyway.
//
// The reservoir samples uniformly (Algorithm R), so quantiles estimate the
// server's whole lifetime (or everything since the last ResetStats).
type metrics struct {
	mu    sync.Mutex
	start time.Time
	reg   *obs.Registry

	requests *obs.Counter
	batches  *obs.Counter
	maxBatch *obs.Gauge
	inferSec *obs.Gauge
	flops    *obs.Gauge
	peakRate *obs.Gauge // best flops/sec over a single batch
	latHist  *obs.Histogram
	lat      *obs.Reservoir

	// Per-model views of the same traffic, named with the architecture the
	// server serves (serve.requests.model.<arch>, ...). In a one-model
	// server they duplicate the base instruments; their value is the model
	// zoo, where registries from several servers are scraped side by side
	// and the labels keep the workloads apart. Additive: the unlabelled base
	// names above are a stable interface and never change.
	mRequests *obs.Counter
	mBatches  *obs.Counter
	mInferSec *obs.Gauge
	mLatHist  *obs.Histogram
}

func newMetrics(model string) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		start:    time.Now(),
		reg:      reg,
		requests: reg.Counter("serve.requests"),
		batches:  reg.Counter("serve.batches"),
		maxBatch: reg.Gauge("serve.max_batch"),
		inferSec: reg.Gauge("serve.infer_seconds"),
		flops:    reg.Gauge("serve.flops"),
		peakRate: reg.Gauge("serve.peak_flop_rate"),
		latHist:  reg.Histogram("serve.latency_s", latencyBuckets),
		// Fixed seed: replacement decisions are deterministic per process,
		// and the seed carries no statistical weight (splitmix64 scrambles).
		lat: obs.NewReservoir(latWindow, 0x15bf5eed),
	}
	if model != "" {
		m.mRequests = reg.Counter("serve.requests.model." + model)
		m.mBatches = reg.Counter("serve.batches.model." + model)
		m.mInferSec = reg.Gauge("serve.infer_seconds.model." + model)
		m.mLatHist = reg.Histogram("serve.latency_s.model."+model, latencyBuckets)
	}
	return m
}

// reset clears every counter, histogram and the latency reservoir and
// restarts the wall clock, so the next snapshot — and the registry /metrics
// serves — covers only what follows.
func (m *metrics) reset() {
	m.mu.Lock()
	m.start = time.Now()
	m.requests.Reset()
	m.batches.Reset()
	m.maxBatch.Set(0)
	m.inferSec.Set(0)
	m.flops.Set(0)
	m.peakRate.Set(0)
	m.latHist.Reset()
	if m.mRequests != nil {
		m.mRequests.Reset()
		m.mBatches.Reset()
		m.mInferSec.Set(0)
		m.mLatHist.Reset()
	}
	m.lat.Reset() // fresh sample AND fresh observation count
	m.mu.Unlock()
}

// recordBatch accounts one completed inference batch and its members'
// end-to-end latencies (seconds).
func (m *metrics) recordBatch(size int, infer time.Duration, flops float64, lats []float64) {
	sec := infer.Seconds()
	m.mu.Lock()
	m.requests.Add(int64(size))
	m.batches.Inc()
	m.maxBatch.Max(float64(size))
	m.inferSec.Add(sec)
	m.flops.Add(flops)
	if sec > 0 {
		m.peakRate.Max(flops / sec)
	}
	if m.mRequests != nil {
		m.mRequests.Add(int64(size))
		m.mBatches.Inc()
		m.mInferSec.Add(sec)
	}
	for _, l := range lats {
		m.lat.Add(l)
		m.latHist.Observe(l)
		if m.mLatHist != nil {
			m.mLatHist.Observe(l)
		}
	}
	m.mu.Unlock()
}

// Stats is a point-in-time snapshot of a server's serving record.
type Stats struct {
	Requests  int64         // completed requests
	Batches   int64         // inference batches run
	MeanBatch float64       // requests per batch
	MaxBatch  int           // largest batch observed
	Wall      time.Duration // time since the server started
	// Throughput is completed requests per wall-clock second.
	Throughput float64
	// P50/P95/P99 are end-to-end request latencies (queue wait + batch
	// assembly + inference) over a uniform whole-lifetime sample.
	P50, P95, P99 time.Duration
	// InferSeconds is summed worker compute time; over Wall×workers it
	// gives the pool's duty cycle.
	InferSeconds float64
	// FLOPs is the total forward work served; MeanFlopRate divides it by
	// InferSeconds and PeakFlopRate is the best single batch, mirroring
	// the paper's §V mean/peak split.
	FLOPs        float64
	MeanFlopRate float64
	PeakFlopRate float64
}

// snapshot computes a Stats from the live instruments.
func (m *metrics) snapshot() Stats {
	m.mu.Lock()
	s := Stats{
		Requests:     m.requests.Value(),
		Batches:      m.batches.Value(),
		MaxBatch:     int(m.maxBatch.Value()),
		Wall:         time.Since(m.start),
		InferSeconds: m.inferSec.Value(),
		FLOPs:        m.flops.Value(),
		PeakFlopRate: m.peakRate.Value(),
	}
	lat := m.lat.Sorted()
	m.mu.Unlock()

	if s.Batches > 0 {
		s.MeanBatch = float64(s.Requests) / float64(s.Batches)
	}
	if w := s.Wall.Seconds(); w > 0 {
		s.Throughput = float64(s.Requests) / w
	}
	if s.InferSeconds > 0 {
		s.MeanFlopRate = s.FLOPs / s.InferSeconds
	}
	if len(lat) > 0 {
		s.P50 = quantile(lat, 0.50)
		s.P95 = quantile(lat, 0.95)
		s.P99 = quantile(lat, 0.99)
	}
	return s
}

// quantile reads the q-th quantile from sorted seconds as a Duration,
// using the nearest-rank method.
func quantile(sorted []float64, q float64) time.Duration {
	return time.Duration(obs.QuantileSorted(sorted, q) * float64(time.Second))
}

// String renders the snapshot as a compact multi-line report.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests %d in %.2fs  (%.0f req/s)\n", s.Requests, s.Wall.Seconds(), s.Throughput)
	fmt.Fprintf(&b, "batches  %d  mean size %.1f  max %d\n", s.Batches, s.MeanBatch, s.MaxBatch)
	fmt.Fprintf(&b, "latency  p50 %s  p95 %s  p99 %s\n",
		s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond))
	fmt.Fprintf(&b, "compute  %.2fs busy  %s mean  %s peak",
		s.InferSeconds, FormatFlops(s.MeanFlopRate), FormatFlops(s.PeakFlopRate))
	return b.String()
}

// FormatFlops renders a flop rate with an SI suffix (the paper reports
// TFLOP/s and PFLOP/s).
func FormatFlops(rate float64) string {
	switch {
	case rate >= 1e15:
		return fmt.Sprintf("%.2f PFLOP/s", rate/1e15)
	case rate >= 1e12:
		return fmt.Sprintf("%.2f TFLOP/s", rate/1e12)
	case rate >= 1e9:
		return fmt.Sprintf("%.2f GFLOP/s", rate/1e9)
	default:
		return fmt.Sprintf("%.2f MFLOP/s", rate/1e6)
	}
}

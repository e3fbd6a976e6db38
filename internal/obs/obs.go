// Package obs is the unified observability layer: a zero-alloc-on-hot-path
// phase tracer (per-worker ring-buffered span records over a monotonic
// clock), a shared metrics registry (atomic counters, gauges and
// fixed-bucket histograms, snapshotable to stable structs), and timeline
// export in the Chrome trace-event format (chrome://tracing / Perfetto).
//
// The paper's whole argument rests on measured time breakdowns — §V's
// peak/sustained methodology, Fig 5's ingest shares, Fig 8's
// straggler-driven case for hybrid asynchrony. The tracer makes those
// breakdowns visible directly: every worker owns a Lane, every interesting
// interval is a phase Span, and the exported timeline shows comm overlap,
// prefetch hiding and async checkpoint stalls as per-worker rows. The
// registry replaces the repo's five bespoke stats structs (serve.metrics,
// data.IngestStats, ps.WireStats, ckpt.Stats, perf rates) with one common
// model behind thin adapters.
//
// Hot-path contract: Lane.Begin/End and every registry write path are
// allocation-free once constructed, gated by AllocsPerRun like the other
// hot paths in this repo. All Lane and Tracer methods are nil-receiver
// safe, so call sites wire tracing unconditionally and a nil tracer
// costs one predictable branch.
package obs

import "fmt"

// Phase identifies what a span's interval was spent on. Training phases
// follow the paper's iteration anatomy (ingest, forward, backward,
// exposed communication wait, solver apply, checkpoint staging); serving
// phases follow a request's life (queue wait, batch assembly, inference).
type Phase uint8

const (
	PhaseIngest Phase = iota
	PhaseFwd
	PhaseBwd
	PhaseCommWait
	PhaseOptApply
	PhaseCkptStage
	PhaseQueue
	PhaseBatch
	PhaseInfer
	// PhaseRoute and PhaseNetWait belong to the network serving tier
	// (internal/netserve): Route is the router's receive→dispatch interval
	// for one request (frame parse, backend pick, forward enqueue);
	// NetWait is the forward→response interval — what the request spent
	// on the wire and inside the backend.
	PhaseRoute
	PhaseNetWait
	// NumPhases bounds per-phase tables (open-span slots, aggregations).
	NumPhases
)

var phaseNames = [NumPhases]string{
	"Ingest", "Fwd", "Bwd", "CommWait", "OptApply", "CkptStage",
	"Queue", "Batch", "Infer", "Route", "NetWait",
}

// String returns the phase's canonical name (also the trace-event name).
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", uint8(p))
}

// PhaseNames lists every phase name in Phase order — the trace schema the
// CI smoke test validates against.
func PhaseNames() []string {
	out := make([]string, NumPhases)
	copy(out, phaseNames[:])
	return out
}

// Span is one recorded interval on a lane: a phase, the iteration it
// belongs to, and start/end nanoseconds on the owning tracer's monotonic
// clock. 24 bytes, value type — rings of these are flat memory.
type Span struct {
	Phase   Phase
	Iter    int32
	StartNs int64
	EndNs   int64
}

// Dur returns the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.EndNs - s.StartNs }

// Seconds returns the span's duration in seconds.
func (s Span) Seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

package main

// Adapter for internal/obs — the only file of the benchmark that imports
// it. Entry points used: NewTracer, Tracer.Snapshot/WriteTraceFile,
// PhaseSeconds, PhaseNames, Registry.Snapshot. These read the spans and
// counters the program already emits through its Config.Trace fields and
// metrics registries; the benchmark adds none inside the program.

import "deep15pf/internal/obs"

type (
	Tracer   = obs.Tracer
	Registry = obs.Registry
)

func newTracer() *Tracer { return obs.NewTracer(0) }

// traceSummary is what the benchmark reads out of a program tracer after a
// traced repetition.
type traceSummary struct {
	// PhaseSec sums span seconds per phase name across all lanes whose
	// name passes keep (nil keeps all).
	PhaseSec map[string]float64
	// PhaseCount counts spans per phase name over the same lanes.
	PhaseCount map[string]int
	Lanes      int
	Spans      int
	Dropped    int64
}

func summarizeTrace(tr *Tracer, keep func(lane string) bool) traceSummary {
	names := obs.PhaseNames()
	sum := traceSummary{PhaseSec: map[string]float64{}, PhaseCount: map[string]int{}}
	for _, ls := range tr.Snapshot() {
		sum.Dropped += ls.Dropped
		sum.Spans += len(ls.Spans)
		if keep != nil && !keep(ls.Name) {
			continue
		}
		sum.Lanes++
		for _, s := range ls.Spans {
			sum.PhaseSec[names[s.Phase]] += s.Seconds()
			sum.PhaseCount[names[s.Phase]]++
		}
	}
	return sum
}

// counters reads a metrics registry's counters by name.
func counters(reg *Registry) map[string]int64 { return reg.Snapshot().Counters }

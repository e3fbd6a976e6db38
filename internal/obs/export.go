package obs

import (
	"encoding/json"
	"io"
	"os"
	"sort"
)

// traceEvent is one record in the Chrome trace-event format ("X" complete
// events with microsecond ts/dur, "M" metadata naming the lanes). The
// format is what chrome://tracing and Perfetto load directly, which is
// the whole point: the repro's comm overlap, prefetch hiding and async
// checkpoint stalls become scrollable per-worker rows instead of claims.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteTrace renders a snapshot as trace-event JSON. Lanes become
// threads (tid = lane index in the sorted snapshot, named via metadata
// events); spans become complete ("X") events carrying their iteration
// in args. Timestamps are microseconds since the tracer epoch.
func WriteTrace(w io.Writer, lanes []LaneSpans) error {
	tf := traceFile{DisplayTimeUnit: "ms"}
	for tid, ls := range lanes {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: tid,
			Args: map[string]any{"name": ls.Name},
		})
		for _, s := range ls.Spans {
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: s.Phase.String(), Ph: "X", Pid: 0, Tid: tid,
				Ts:   float64(s.StartNs) / 1e3,
				Dur:  float64(s.Dur()) / 1e3,
				Args: map[string]any{"iter": s.Iter},
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// WriteTraceFile snapshots the tracer and writes trace-event JSON to
// path. No-op (and nil error) on a nil tracer, so cmds call it
// unconditionally after a run.
func (t *Tracer) WriteTraceFile(path string) error {
	if t == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTrace(f, t.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// PhaseSeconds sums span durations per phase across the given lanes.
func PhaseSeconds(lanes []LaneSpans) [NumPhases]float64 {
	var out [NumPhases]float64
	for _, ls := range lanes {
		for _, s := range ls.Spans {
			out[s.Phase] += s.Seconds()
		}
	}
	return out
}

// interval is a half-open [start, end) time range in tracer nanoseconds.
type interval struct{ start, end int64 }

// mergeIntervals sorts and coalesces overlapping intervals in place,
// returning the merged set.
func mergeIntervals(iv []interval) []interval {
	if len(iv) == 0 {
		return iv
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	out := iv[:1]
	for _, x := range iv[1:] {
		last := &out[len(out)-1]
		if x.start <= last.end {
			if x.end > last.end {
				last.end = x.end
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// collect gathers the intervals of spans matching any phase in want.
func collect(lanes []LaneSpans, want func(Phase) bool) []interval {
	var iv []interval
	for _, ls := range lanes {
		for _, s := range ls.Spans {
			if want(s.Phase) && s.EndNs > s.StartNs {
				iv = append(iv, interval{s.StartNs, s.EndNs})
			}
		}
	}
	return iv
}

// OverlapSeconds measures how much of the time covered by phase-a spans
// was concurrently covered by phase-b spans across the given lanes —
// span-derived overlap, replacing hand-threaded timers. Both sides are
// interval-merged first so self-overlapping spans don't double count.
func OverlapSeconds(lanes []LaneSpans, a, b func(Phase) bool) float64 {
	ia := mergeIntervals(collect(lanes, a))
	ib := mergeIntervals(collect(lanes, b))
	var ns int64
	j := 0
	for _, x := range ia {
		for j < len(ib) && ib[j].end <= x.start {
			j++
		}
		for k := j; k < len(ib) && ib[k].start < x.end; k++ {
			lo, hi := x.start, x.end
			if ib[k].start > lo {
				lo = ib[k].start
			}
			if ib[k].end < hi {
				hi = ib[k].end
			}
			if hi > lo {
				ns += hi - lo
			}
		}
	}
	return float64(ns) / 1e9
}

package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one interval the benchmark recorded around a call into a layer's
// public functions. Spans nest through Parent (an index into the log, -1
// for a root) and carry the repetition they belong to, so a reader of the
// trace can take a layer's self time — its duration minus what its children
// cover — without any span emitted from inside the program under test.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Rep    int    `json:"rep"`
}

// spanLog keeps the benchmark's spans in memory until the run ends. A nil
// log is the off switch: begin returns -1 and end ignores it, so untraced
// repetitions run the same code with one branch per site.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children's parent.
func (l *spanLog) begin(layer, name string, parent, rep int) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{Name: name, Layer: layer, Start: now, End: now, Parent: parent, Rep: rep})
	return len(l.spans) - 1
}

// end closes the span begin returned.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	now := time.Since(l.epoch).Nanoseconds()
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// writeChrome renders the log as Chrome trace-event JSON: one thread row
// per layer, complete ("X") events with parent and repetition in args.
func (l *spanLog) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	tids := map[string]int{}
	var events []event
	for i, s := range spans {
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.Layer] = tid
			events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": s.Layer}})
		}
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"id": i, "parent": s.Parent, "rep": s.Rep},
		})
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

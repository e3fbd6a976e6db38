package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestWriteTraceFormat(t *testing.T) {
	tr := NewTracer(8)
	w0 := tr.Lane("w0")
	w1 := tr.Lane("w1")
	w0.SetIter(1)
	w0.Record(PhaseFwd, 1000, 3000)
	w1.Record(PhaseCommWait, 2000, 5000)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int            `json:"tid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if tf.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", tf.DisplayTimeUnit)
	}
	var meta, spans int
	laneNames := map[string]bool{}
	for _, ev := range tf.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			laneNames[ev.Args["name"].(string)] = true
		case "X":
			spans++
			if ev.Name == "Fwd" {
				if ev.Ts != 1.0 || ev.Dur != 2.0 { // ns -> µs
					t.Errorf("Fwd event ts/dur = %g/%g, want 1/2", ev.Ts, ev.Dur)
				}
				if ev.Args["iter"].(float64) != 1 {
					t.Errorf("Fwd iter arg = %v", ev.Args["iter"])
				}
			}
		default:
			t.Errorf("unexpected ph %q", ev.Ph)
		}
	}
	if meta != 2 || spans != 2 {
		t.Fatalf("meta=%d spans=%d, want 2/2", meta, spans)
	}
	if !laneNames["w0"] || !laneNames["w1"] {
		t.Fatalf("lane names missing: %v", laneNames)
	}
}

func TestWriteTraceFile(t *testing.T) {
	tr := NewTracer(8)
	tr.Lane("w").Record(PhaseInfer, 0, 10)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.WriteTraceFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) || !strings.Contains(string(b), `"Infer"`) {
		t.Fatalf("bad trace file: %s", b)
	}
}

func TestPhaseSeconds(t *testing.T) {
	tr := NewTracer(8)
	tr.Lane("a").Record(PhaseFwd, 0, 2e9)
	tr.Lane("a").Record(PhaseBwd, 2e9, 3e9)
	tr.Lane("b").Record(PhaseFwd, 0, 1e9)
	ps := PhaseSeconds(tr.Snapshot())
	if ps[PhaseFwd] != 3 || ps[PhaseBwd] != 1 || ps[PhaseInfer] != 0 {
		t.Fatalf("PhaseSeconds = %v", ps)
	}
}

func TestOverlapSeconds(t *testing.T) {
	tr := NewTracer(16)
	// Compute on lane a: [0, 10s]. Comm on lane b: [4s, 8s] and [9s, 12s].
	tr.Lane("a").Record(PhaseFwd, 0, 10e9)
	tr.Lane("b").Record(PhaseCommWait, 4e9, 8e9)
	tr.Lane("b").Record(PhaseCommWait, 9e9, 12e9)
	snap := tr.Snapshot()
	isComm := func(p Phase) bool { return p == PhaseCommWait }
	isCompute := func(p Phase) bool { return p == PhaseFwd || p == PhaseBwd }
	if got := OverlapSeconds(snap, isComm, isCompute); got != 5 { // 4 + 1
		t.Errorf("overlap = %g, want 5", got)
	}
	// Self-overlapping spans on one side must merge, not double count.
	tr2 := NewTracer(8)
	tr2.Lane("x").Record(PhaseIngest, 0, 6e9)
	tr2.Lane("y").Record(PhaseIngest, 3e9, 9e9)
	tr2.Lane("z").Record(PhaseFwd, 0, 9e9)
	isIngest := func(p Phase) bool { return p == PhaseIngest }
	if got := OverlapSeconds(tr2.Snapshot(), isIngest, isCompute); got != 9 {
		t.Errorf("merged overlap = %g, want 9", got)
	}
}

func TestStragglersPinned(t *testing.T) {
	tr := NewTracer(16)
	// Iter 0: w0 computes 2s, w1 computes 5s -> skew 3.
	// Iter 1: w0 computes 4s (2 spans), w1 computes 4.5s -> skew 0.5.
	w0, w1 := tr.Lane("w0"), tr.Lane("w1")
	w0.SetIter(0)
	w0.Record(PhaseFwd, 0, 2e9)
	w1.SetIter(0)
	w1.Record(PhaseFwd, 0, 5e9)
	w0.SetIter(1)
	w0.Record(PhaseFwd, 6e9, 9e9)
	w0.Record(PhaseBwd, 9e9, 10e9)
	w1.SetIter(1)
	w1.Record(PhaseFwd, 6e9, 10.5e9)
	// CommWait must not count as compute.
	w1.Record(PhaseCommWait, 10.5e9, 20e9)

	rep := Stragglers(tr.Snapshot())
	if len(rep.Iters) != 2 {
		t.Fatalf("iters = %d, want 2", len(rep.Iters))
	}
	i0, i1 := rep.Iters[0], rep.Iters[1]
	if i0.Iter != 0 || i0.Lanes != 2 || i0.Min != 2 || i0.Max != 5 || i0.Skew != 3 {
		t.Errorf("iter 0 = %+v", i0)
	}
	if i1.Iter != 1 || i1.Skew != 0.5 || i1.Min != 4 || i1.Max != 4.5 {
		t.Errorf("iter 1 = %+v", i1)
	}
	if rep.MaxSkew != 3 || rep.WorstIter != 0 || rep.MeanSkew != 1.75 {
		t.Errorf("report = %+v", rep)
	}
	if s := rep.String(); !strings.Contains(s, "max 3s (iter 0)") {
		t.Errorf("String() = %q", s)
	}
	// Single-lane iterations are skipped (no cross-worker skew to report).
	solo := NewTracer(8)
	solo.Lane("only").Record(PhaseFwd, 0, 1e9)
	if rep := Stragglers(solo.Snapshot()); len(rep.Iters) != 0 || rep.WorstIter != -1 {
		t.Errorf("solo report = %+v", rep)
	}
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits").Add(3)
	ds, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + ds.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return b
	}

	var m struct {
		Runtime  RuntimeMetrics   `json:"runtime"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(get("/metrics"), &m); err != nil {
		t.Fatalf("/metrics JSON: %v", err)
	}
	if m.Runtime.Goroutines <= 0 || m.Runtime.HeapAllocMB <= 0 {
		t.Errorf("runtime metrics = %+v", m.Runtime)
	}
	if m.Counters["hits"] != 3 {
		t.Errorf("counters = %v", m.Counters)
	}
	if !strings.Contains(string(get("/debug/pprof/")), "pprof") {
		t.Error("pprof index not served")
	}
}

func TestReadRuntimeMetrics(t *testing.T) {
	rm := ReadRuntimeMetrics(time.Now().Add(-time.Second))
	if rm.Goroutines <= 0 || rm.UptimeSec < 1 {
		t.Errorf("runtime metrics = %+v", rm)
	}
}

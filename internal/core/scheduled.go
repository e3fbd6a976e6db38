package core

import (
	"fmt"
	"sort"
)

// ScheduledEvent places one group iteration at a simulated completion time.
// Schedules come from the cluster model (internal/cluster), which knows
// what each group's iteration costs at the target node count — this is how
// the Fig 8 time-to-train study couples real SGD dynamics to Cori-scale
// hardware timing.
type ScheduledEvent struct {
	Group int
	Time  float64 // seconds on the simulated cluster clock
}

// BuildSchedule converts per-group iteration durations (from
// cluster.RunResult.IterDurations) into a merged, time-ordered schedule.
func BuildSchedule(iterDurations [][]float64) []ScheduledEvent {
	var events []ScheduledEvent
	for g, durs := range iterDurations {
		t := 0.0
		for _, d := range durs {
			t += d
			events = append(events, ScheduledEvent{Group: g, Time: t})
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Time < events[j].Time })
	return events
}

// TrainScheduled runs the hybrid trainer with the groups taking turns in
// the order given by schedule: a group root takes its turn before its
// iteration's compute and passes it on once every layer's push has landed,
// so the PS fleet applies whole group updates in schedule order and the
// staleness process matches what the simulated cluster would produce. The
// result's IterStat.Time carries the simulated clock.
//
// Everything else is TrainHybrid's: the exchange overlaps the backward
// pass and runs through cfg.Codec — with "int8" every push suffers the
// quantised wire's distortion, so the Fig 8 study couples real
// low-precision SGD dynamics to the simulated timeline.
//
// With cfg.Checkpoint the run snapshots the fleet (plus each group's
// progress cursor and replica view) after every cfg.Checkpoint.Every-th
// schedule update. On resume the SAME schedule must be passed again: the
// trainer replays past it — skipping each group's first GroupIters[g]
// events without computing — and continues, bit-exact for the fp32 wire
// (the int8 codec's rounding streams restart at resume, a documented
// divergence).
func TrainScheduled(p Problem, cfg Config, schedule []ScheduledEvent) Result {
	h := newHybridRun(p, cfg)
	h.gate = newTurnGate(schedule, h.starts, h.ends)
	return h.run()
}

// turnGate serialises a scheduled run's group iterations. It holds the
// schedule filtered to the events that execute: each group's first
// starts[g] events are replayed past (they ran before the snapshot a
// resumed run starts from), and events past a group's end are dropped.
// Exactly one token circulates; whoever holds it is the only group
// computing or exchanging.
type turnGate struct {
	events []ScheduledEvent
	seqs   []int // each kept event's index in the full schedule
	next   int   // the kept event whose turn it is
	turns  []chan struct{}
}

// newTurnGate filters schedule and lowers each group's end to the
// iteration after its last kept event.
func newTurnGate(schedule []ScheduledEvent, starts, ends []int) *turnGate {
	t := &turnGate{turns: make([]chan struct{}, len(starts))}
	seen := make([]int, len(starts))
	limit := append([]int(nil), ends...)
	copy(ends, starts)
	for i, ev := range schedule {
		g := ev.Group
		if g < 0 || g >= len(starts) {
			panic(fmt.Sprintf("core: schedule references group %d of %d", g, len(starts)))
		}
		if seen[g]++; seen[g] <= starts[g] || ends[g] >= limit[g] {
			continue
		}
		t.events = append(t.events, ev)
		t.seqs = append(t.seqs, i)
		ends[g]++
	}
	for g := range t.turns {
		t.turns[g] = make(chan struct{}, 1)
	}
	if len(t.events) > 0 {
		t.turns[t.events[0].Group] <- struct{}{}
	}
	return t
}

// acquire blocks until it is group g's turn. A nil gate never blocks.
func (t *turnGate) acquire(g int) {
	if t != nil {
		<-t.turns[g]
	}
}

// event returns the turn holder's schedule index and simulated time.
func (t *turnGate) event() (seq int, at float64) {
	return t.seqs[t.next], t.events[t.next].Time
}

// release passes the turn to the next event's group.
func (t *turnGate) release() {
	if t == nil {
		return
	}
	if t.next++; t.next < len(t.events) {
		t.turns[t.events[t.next].Group] <- struct{}{}
	}
}

// TimeToLoss scans a scheduled result for the first simulated time at
// which the running mean loss (over the trailing `smooth` updates) drops
// to target. Returns +Inf-like ok=false when never reached. This is the
// paper's Fig 8 figure of merit ("wall-clock time speedups with respect to
// a loss of 0.05").
func TimeToLoss(res Result, target float64, smooth int) (float64, bool) {
	if smooth < 1 {
		smooth = 1
	}
	window := make([]float64, 0, smooth)
	var sum float64
	for _, s := range res.Stats {
		window = append(window, s.Loss)
		sum += s.Loss
		if len(window) > smooth {
			sum -= window[0]
			window = window[1:]
		}
		if len(window) == smooth && sum/float64(smooth) <= target {
			return s.Time, true
		}
	}
	return 0, false
}

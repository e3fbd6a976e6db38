// Package sim is a minimal deterministic discrete-event simulation engine:
// an event heap with a monotone clock and FIFO resources. The cluster model
// (internal/cluster) uses it to simulate synchronous and hybrid training
// runs at Cori scale — thousands of compute nodes, per-layer parameter
// servers with queueing, jitter and failures — in milliseconds of host time.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Sim is a discrete-event simulator. The zero value is not usable; call New.
type Sim struct {
	now    float64
	events eventHeap
	seq    int64
}

// New returns an empty simulator at time zero.
func New() *Sim {
	return &Sim{}
}

// Now returns the current simulation time in seconds.
func (s *Sim) Now() float64 { return s.now }

// Schedule enqueues fn to run delay seconds from now. Negative delays are
// rejected — time travel means a modelling bug.
func (s *Sim) Schedule(delay float64, fn func()) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: invalid delay %v", delay))
	}
	s.ScheduleAt(s.now+delay, fn)
}

// ScheduleAt enqueues fn at absolute time t (≥ now).
func (s *Sim) ScheduleAt(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
	s.seq++
	heap.Push(&s.events, &event{time: t, seq: s.seq, fn: fn})
}

// Step runs the next event; returns false when the queue is empty.
func (s *Sim) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	ev := heap.Pop(&s.events).(*event)
	s.now = ev.time
	ev.fn()
	return true
}

// Run processes events until the queue drains.
func (s *Sim) Run() {
	for s.Step() {
	}
}

type event struct {
	time float64
	seq  int64
	fn   func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq // FIFO among simultaneous events
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Resource is a single FIFO server (a parameter server, a filesystem, a
// shared link). Requests issued at the current simulation time queue behind
// earlier ones; Request returns the completion time so callers can schedule
// their continuation.
type Resource struct {
	Name   string
	sim    *Sim
	freeAt float64
	busy   float64
}

// NewResource attaches a fresh FIFO resource to the simulator.
func NewResource(s *Sim, name string) *Resource {
	return &Resource{Name: name, sim: s}
}

// Request enqueues a job of the given service time arriving now and returns
// its completion time. Queueing delay is implicit: the job starts when the
// server frees up.
func (r *Resource) Request(service float64) float64 {
	if service < 0 || math.IsNaN(service) {
		panic(fmt.Sprintf("sim: invalid service time %v", service))
	}
	start := r.freeAt
	if r.sim.now > start {
		start = r.sim.now
	}
	done := start + service
	r.freeAt = done
	r.busy += service
	return done
}

// Utilization returns busy time over the given horizon.
func (r *Resource) Utilization(horizon float64) float64 {
	if horizon <= 0 {
		return 0
	}
	u := r.busy / horizon
	if u > 1 {
		u = 1
	}
	return u
}

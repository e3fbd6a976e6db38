package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Schedule(1, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []float64
	s.Schedule(1, func() {
		times = append(times, s.Now())
		s.Schedule(2, func() {
			times = append(times, s.Now())
		})
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("times = %v", times)
	}
}

func TestScheduleValidation(t *testing.T) {
	s := New()
	mustPanic := func(f func()) {
		defer func() { _ = recover() }()
		f()
		t.Fatal("expected panic")
	}
	mustPanic(func() { s.Schedule(-1, func() {}) })
	mustPanic(func() { s.Schedule(math.NaN(), func() {}) })
	s.Schedule(5, func() {})
	s.Run()
	mustPanic(func() { s.ScheduleAt(1, func() {}) }) // in the past now
}

func TestResourceFIFOQueueing(t *testing.T) {
	s := New()
	r := NewResource(s, "ps")
	// Two requests at t=0 with service 2: completions at 2 and 4.
	var d1, d2, d3 float64
	s.Schedule(0, func() {
		d1 = r.Request(2)
		d2 = r.Request(2)
	})
	// A request at t=10 (idle server): completes at 12.
	s.Schedule(10, func() { d3 = r.Request(2) })
	s.Run()
	if d1 != 2 || d2 != 4 || d3 != 12 {
		t.Fatalf("completions = %v %v %v", d1, d2, d3)
	}
	if u := r.Utilization(12); u != 0.5 {
		t.Fatalf("6s of service over a 12s horizon: utilization %v, want 0.5", u)
	}
}

func TestResourceUtilization(t *testing.T) {
	s := New()
	r := NewResource(s, "x")
	s.Schedule(0, func() { r.Request(3) })
	s.Run()
	if u := r.Utilization(6); math.Abs(u-0.5) > 1e-12 {
		t.Fatalf("utilization = %v", u)
	}
	if r.Utilization(0) != 0 {
		t.Fatal("degenerate horizon")
	}
	if r.Utilization(1) != 1 {
		t.Fatal("utilization must clamp at 1")
	}
}

// Property: for any set of arrival/service pairs processed in arrival
// order, the resource behaves as a single FIFO server: completion(i) =
// max(arrival(i), completion(i-1)) + service(i).
func TestResourceFIFOProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 || len(raw) > 20 {
			return true
		}
		s := New()
		r := NewResource(s, "q")
		arrival := 0.0
		type job struct{ at, service float64 }
		jobs := make([]job, len(raw))
		for i, b := range raw {
			arrival += float64(b%7) * 0.5
			jobs[i] = job{at: arrival, service: float64(b%5) * 0.3}
		}
		got := make([]float64, len(jobs))
		for i, j := range jobs {
			i, j := i, j
			s.ScheduleAt(j.at, func() { got[i] = r.Request(j.service) })
		}
		s.Run()
		prev := 0.0
		for i, j := range jobs {
			want := math.Max(j.at, prev) + j.service
			if math.Abs(got[i]-want) > 1e-9 {
				return false
			}
			prev = want
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("empty sim must not step")
	}
}

package serve

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deep15pf/internal/tensor"
)

// TestDrainCompletesInFlight is the graceful-drain contract: every request
// admitted before Close completes with a real answer, every submit racing
// in after Close gets the typed ErrClosed refusal, and nothing is ever
// silently dropped — the single-server half of the fleet's
// zero-dropped-requests guarantee.
func TestDrainCompletesInFlight(t *testing.T) {
	s, inputs := loadTinyServer(t, Config{MaxBatch: 8, MaxLinger: time.Millisecond, Workers: 2})

	const clients = 16
	var (
		completed atomic.Int64
		refused   atomic.Int64
		started   sync.WaitGroup
		wg        sync.WaitGroup
	)
	stop := make(chan struct{})
	started.Add(clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			first := true
			for {
				select {
				case <-stop:
					return
				default:
				}
				y, err := s.Submit(inputs[c%len(inputs)].X)
				if first {
					started.Done()
					first = false
				}
				switch {
				case err == nil:
					if y.Len() != 2 {
						t.Errorf("drained response has %d values", y.Len())
					}
					completed.Add(1)
				case errors.Is(err, ErrClosed):
					refused.Add(1)
					return
				default:
					t.Errorf("submit failed with untyped error: %v", err)
					return
				}
			}
		}(c)
	}
	started.Wait() // every client has at least one request through
	s.Close()      // drain: admitted requests complete, new ones bounce
	close(stop)
	wg.Wait()

	st := s.Stats()
	if got := completed.Load(); st.Requests != got {
		t.Fatalf("server counted %d requests, clients saw %d complete — a request was dropped across drain",
			st.Requests, got)
	}
	if completed.Load() < clients {
		t.Fatalf("only %d requests completed before drain", completed.Load())
	}
	if _, err := s.Submit(inputs[0].X); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain Submit returned %v, want ErrClosed", err)
	}
}

// TestDrainStopsGoroutines pins the leak half of the drain contract: after
// Close returns, the batcher and every worker have exited (the race
// detector in CI makes this meaningful — a live worker would race the
// test's teardown).
func TestDrainStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		s, inputs := loadTinyServer(t, Config{MaxBatch: 4, Workers: 4})
		if res := RunClosedLoop(s, inputs, 8, 64); res.Err != nil {
			t.Fatal(res.Err)
		}
		s.Close()
	}
	// Closed servers must not accumulate goroutines. Allow slack for
	// runtime background goroutines waking up during the test.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines grew %d -> %d across three server lifecycles", before, g)
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitAsyncCompletes drives the callback entry point the network
// tier rides: responses arrive via cb with the caller's ctx, bitwise
// identical to the synchronous path, with no goroutine parked per request.
func TestSubmitAsyncCompletes(t *testing.T) {
	s, inputs := loadTinyServer(t, Config{MaxBatch: 8, MaxLinger: time.Millisecond, Workers: 2})

	want := make([][]float32, len(inputs))
	for i, in := range inputs {
		y, err := s.Submit(in.X)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append([]float32(nil), y.Data...)
	}

	type slot struct {
		i    int
		got  []float32
		done chan struct{}
	}
	slots := make([]*slot, len(inputs))
	cb := func(y *tensor.Tensor, ctx any) {
		sl := ctx.(*slot)
		sl.got = append(sl.got, y.Data...)
		close(sl.done)
	}
	for i, in := range inputs {
		slots[i] = &slot{i: i, done: make(chan struct{})}
		if err := s.SubmitAsync(in.X, cb, slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, sl := range slots {
		<-sl.done
		for j := range want[sl.i] {
			if sl.got[j] != want[sl.i][j] {
				t.Fatalf("async response %d logit %d: got %v want %v", sl.i, j, sl.got[j], want[sl.i][j])
			}
		}
	}

	// Shape policing and the closed refusal hold on the async path too.
	if err := s.SubmitAsync(tensor.New(3, 4, 4), cb, nil); err == nil {
		t.Fatal("SubmitAsync accepted a mis-shaped request")
	}
	if err := s.SubmitAsync(inputs[0].X, nil, nil); err == nil {
		t.Fatal("SubmitAsync accepted a nil callback")
	}
	s.Close()
	if err := s.SubmitAsync(inputs[0].X, cb, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-drain SubmitAsync returned %v, want ErrClosed", err)
	}
}

// TestOpenLoopLoadgen exercises the Poisson generator against a live
// server: every arrival completes, quantiles are populated, and the
// wall-clock respects the arrival schedule rather than the service rate.
func TestOpenLoopLoadgen(t *testing.T) {
	s, inputs := loadTinyServer(t, Config{MaxBatch: 8, MaxLinger: time.Millisecond, Workers: 2})
	const total, rate = 200, 4000.0
	res := RunOpenLoop(s, inputs, rate, total, 7)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Requests != total || res.Dropped != 0 {
		t.Fatalf("open loop completed %d/%d, dropped %d", res.Requests, total, res.Dropped)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("degenerate quantiles: p50 %v p99 %v", res.P50, res.P99)
	}
	// 200 arrivals at 4000/s take ~50ms in expectation; a closed-loop
	// misreading of the schedule would finish as fast as the server can
	// serve. Only a gross lower bound is asserted (CI scheduling noise).
	if res.Wall < 10*time.Millisecond {
		t.Fatalf("open-loop run finished in %v — arrivals are not being paced", res.Wall)
	}
}

// TestStatsCountAnsweredRequests: a request is in Stats by the time its
// caller holds the response — inside the completion callback already, on
// the async path the network tier uses.
func TestStatsCountAnsweredRequests(t *testing.T) {
	s, inputs := loadTinyServer(t, Config{MaxBatch: 8, Workers: 2})
	defer s.Close()
	counted := make(chan int64, 1)
	cb := func(*tensor.Tensor, any) { counted <- s.Stats().Requests }
	for i := int64(0); i < 100; i += 2 {
		if _, err := s.Submit(inputs[i%int64(len(inputs))].X); err != nil {
			t.Fatal(err)
		}
		if got := s.Stats().Requests; got != i+1 {
			t.Fatalf("after %d answered requests Stats counts %d", i+1, got)
		}
		if err := s.SubmitAsync(inputs[0].X, cb, nil); err != nil {
			t.Fatal(err)
		}
		if got := <-counted; got != i+2 {
			t.Fatalf("callback for request %d saw Stats count %d", i+2, got)
		}
	}
}

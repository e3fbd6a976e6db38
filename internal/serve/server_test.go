package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"deep15pf/internal/tensor"
)

// loadTinyServer trains, checkpoints, and loads the tiny HEP model, then
// starts a server with the given batching config.
func loadTinyServer(t *testing.T, cfg Config) (*Server, []*LoadInput) {
	t.Helper()
	net, ds := trainTinyHEP(t, 4)
	path := saveTinyHEP(t, net)
	r := NewRegistry()
	RegisterHEP(r, "tiny", tinyHEP())
	lm, err := r.Load("tiny", path, Float32)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	s, err := NewServer(lm, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(s.Close)

	shape := ds.Images.Shape
	per := shape[1] * shape[2] * shape[3]
	inputs := make([]*LoadInput, shape[0])
	for i := range inputs {
		inputs[i] = &LoadInput{
			X: tensor.FromSlice(ds.Images.Data[i*per:(i+1)*per], shape[1], shape[2], shape[3]),
			Check: func(y *tensor.Tensor) error {
				if y.Len() != 2 {
					return fmt.Errorf("want 2 logits, got shape %v", y.Shape)
				}
				return nil
			},
		}
	}
	return s, inputs
}

// TestServerServesConcurrentRequests: many concurrent submitters all get
// correct, per-request answers, and the batcher actually coalesces.
func TestServerServesConcurrentRequests(t *testing.T) {
	s, inputs := loadTinyServer(t, Config{MaxBatch: 8, MaxLinger: time.Millisecond, Workers: 2})

	// Ground truth from a dedicated replica, batch of one each time.
	ref, err := s.Model().NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float32, len(inputs))
	for i, in := range inputs {
		y := ref.Infer(tensor.FromSlice(append([]float32(nil), in.X.Data...), append([]int{1}, s.Model().InShape()...)...))
		want[i] = append([]float32(nil), y.Data...)
	}

	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(inputs))
	for round := 0; round < rounds; round++ {
		for i, in := range inputs {
			wg.Add(1)
			go func(i int, in *LoadInput) {
				defer wg.Done()
				y, err := s.Submit(in.X)
				if err != nil {
					errs <- err
					return
				}
				for j := range want[i] {
					if y.Data[j] != want[i][j] {
						errs <- fmt.Errorf("request %d logit %d: got %v want %v", i, j, y.Data[j], want[i][j])
						return
					}
				}
			}(i, in)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	s.Close() // the worker answers before it records the batch
	st := s.Stats()
	if st.Requests != rounds*int64(len(inputs)) {
		t.Fatalf("stats counted %d requests, served %d", st.Requests, rounds*len(inputs))
	}
	if st.Batches >= st.Requests {
		t.Fatalf("no batching happened: %d batches for %d requests", st.Batches, st.Requests)
	}
	if st.MaxBatch > 8 {
		t.Fatalf("batch of %d exceeds MaxBatch 8", st.MaxBatch)
	}
	if st.P99 <= 0 || st.MeanFlopRate <= 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
}

// TestServerBatchOne: MaxBatch=1 must serve strictly one request per batch
// (the unbatched baseline of the throughput study).
func TestServerBatchOne(t *testing.T) {
	s, inputs := loadTinyServer(t, Config{MaxBatch: 1, Workers: 1})
	res := RunClosedLoop(s, inputs, 4, 200)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	st := s.Stats()
	if st.MaxBatch != 1 || st.Batches != st.Requests {
		t.Fatalf("MaxBatch=1 server batched: %+v", st)
	}
}

// TestLingerFliesSolo: a lone request must not wait out the full linger
// against an empty queue forever — it departs at the deadline.
func TestLingerFliesSolo(t *testing.T) {
	s, inputs := loadTinyServer(t, Config{MaxBatch: 32, MaxLinger: 5 * time.Millisecond, Workers: 1})
	start := time.Now()
	if _, err := s.Submit(inputs[0].X); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("lone request took %v", d)
	}
	// The worker answers before it records the batch: Close waits for it.
	s.Close()
	if st := s.Stats(); st.Requests != 1 || st.Batches != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
}

func TestSubmitRejectsWrongShape(t *testing.T) {
	s, _ := loadTinyServer(t, Config{MaxBatch: 4, Workers: 1})
	if _, err := s.Submit(tensor.New(3, 4, 4)); err == nil {
		t.Fatal("Submit accepted a mis-shaped request")
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	s, inputs := loadTinyServer(t, Config{MaxBatch: 4, Workers: 1})
	res := RunClosedLoop(s, inputs, 8, 100)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	s.Close()
	if _, err := s.Submit(inputs[0].X); err != ErrClosed {
		t.Fatalf("Submit after Close: %v", err)
	}
	s.Close() // second Close must be a no-op
	if st := s.Stats(); st.Requests != 100 {
		t.Fatalf("lost requests across Close: %+v", st)
	}
}

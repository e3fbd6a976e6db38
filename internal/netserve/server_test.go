package netserve

import (
	"errors"
	"sync"
	"testing"
	"time"

	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

// TestNetRoundTrip pins wire fidelity: logits served over the socket are
// bitwise identical to the in-process path, the error frames for unknown
// models and bad shapes are typed and survivable (the connection keeps
// working), and InferInto lands in the caller's tensor.
func TestNetRoundTrip(t *testing.T) {
	ns, eng, inputs := startBackend(t, ServerConfig{}, serve.Config{MaxBatch: 8, MaxLinger: time.Millisecond, Workers: 2})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i, in := range inputs[:8] {
		want, err := eng.Submit(in.X)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Infer("tiny", in.X)
		if err != nil {
			t.Fatalf("Infer %d: %v", i, err)
		}
		if got.Len() != want.Len() {
			t.Fatalf("response %d has %d values, want %d", i, got.Len(), want.Len())
		}
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("response %d logit %d: wire %v, local %v", i, j, got.Data[j], want.Data[j])
			}
		}
		y := tensor.New(2)
		if err := c.InferInto("tiny", in.X, y); err != nil {
			t.Fatal(err)
		}
		for j := range want.Data {
			if y.Data[j] != want.Data[j] {
				t.Fatalf("InferInto %d logit %d: wire %v, local %v", i, j, y.Data[j], want.Data[j])
			}
		}
	}

	// Unknown model: typed refusal, connection survives.
	var re *RemoteError
	if _, err := c.Infer("nope", inputs[0].X); !errors.As(err, &re) || re.Code != CodeUnknownModel {
		t.Fatalf("unknown model returned %v, want RemoteError{CodeUnknownModel}", err)
	}
	// Wrong shape for the model: typed refusal, connection survives.
	if _, err := c.Infer("tiny", tensor.New(3, 4, 4)); !errors.As(err, &re) || re.Code != CodeBadShape {
		t.Fatalf("bad shape returned %v, want RemoteError{CodeBadShape}", err)
	}
	if _, err := c.Infer("tiny", inputs[0].X); err != nil {
		t.Fatalf("connection did not survive the error frames: %v", err)
	}
}

// TestNetPipelined drives many goroutines through one multiplexed
// connection: every response must land on the request that asked for it
// (ids, not arrival order, do the matching).
func TestNetPipelined(t *testing.T) {
	ns, eng, inputs := startBackend(t, ServerConfig{}, serve.Config{MaxBatch: 8, MaxLinger: time.Millisecond, Workers: 2})

	want := make([][]float32, len(inputs))
	for i, in := range inputs {
		y, err := eng.Submit(in.X)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append([]float32(nil), y.Data...)
	}

	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(inputs))
	for r := 0; r < rounds; r++ {
		for i, in := range inputs {
			wg.Add(1)
			go func(i int, in *serve.LoadInput) {
				defer wg.Done()
				y, err := c.Infer("tiny", in.X)
				if err != nil {
					errs <- err
					return
				}
				for j := range want[i] {
					if y.Data[j] != want[i][j] {
						errs <- errors.New("response matched to the wrong request id")
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
}

// TestNetGoawayDrain runs the drain handshake under live load: Drain must
// answer every in-flight request (zero drops), new submits after goaway
// get the typed ErrDraining, and Drain returns once clients close.
func TestNetGoawayDrain(t *testing.T) {
	ns, _, inputs := startBackend(t, ServerConfig{}, serve.Config{MaxBatch: 8, MaxLinger: time.Millisecond, Workers: 2})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const clients = 8
	var (
		completed, refused int
		mu                 sync.Mutex
		started            sync.WaitGroup
		wg                 sync.WaitGroup
	)
	started.Add(clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			first := true
			for {
				y, err := c.Infer("tiny", inputs[i%len(inputs)].X)
				if first {
					started.Done()
					first = false
				}
				switch {
				case err == nil:
					if y.Len() != 2 {
						t.Errorf("drained response has %d values", y.Len())
					}
					mu.Lock()
					completed++
					mu.Unlock()
				case errors.Is(err, ErrDraining):
					mu.Lock()
					refused++
					mu.Unlock()
					return
				default:
					// After goaway the transport closes once in-flight
					// requests land; a submit racing the close sees a
					// connection error — that request was refused, not
					// dropped (it never got an id on the server).
					mu.Lock()
					refused++
					mu.Unlock()
					return
				}
			}
		}(i)
	}
	started.Wait()
	ns.Drain(5 * time.Second)
	wg.Wait()

	if completed < clients {
		t.Fatalf("only %d requests completed before drain", completed)
	}
	if _, err := c.Infer("tiny", inputs[0].X); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Infer returned %v, want ErrDraining (the client saw goaway)", err)
	}
}

// TestNetClosedLoopOverSocket runs the standard load harness against the
// wire path: the socket submitter must behave exactly like an in-process
// server — zero drops, populated quantiles.
func TestNetClosedLoopOverSocket(t *testing.T) {
	ns, _, inputs := startBackend(t, ServerConfig{}, serve.Config{MaxBatch: 8, MaxLinger: time.Millisecond, Workers: 2})
	c, err := Dial(ns.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	res := serve.RunClosedLoop(c.Bind("tiny"), inputs, 8, 256)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Requests != 256 || res.Dropped != 0 {
		t.Fatalf("closed loop over socket: %d/%d completed, %d dropped", res.Requests, 256, res.Dropped)
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Fatalf("degenerate socket quantiles: p50 %v p99 %v", res.P50, res.P99)
	}
}

package netserve

import (
	"encoding/binary"
	"errors"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"deep15pf/internal/climate"
	"deep15pf/internal/nn"
	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

// startFleet brings up len(delays) backends over one trained checkpoint
// (delays[i] is backend i's injected slowness) plus a router over all of
// them.
func startFleet(t *testing.T, delays []time.Duration) (*Router, []*Server, []*serve.Server, []*serve.LoadInput) {
	t.Helper()
	lm, inputs := trainAndLoad(t)
	scfg := serve.Config{MaxBatch: 8, MaxLinger: time.Millisecond, Workers: 2}
	engines := make([]*serve.Server, len(delays))
	nss := make([]*Server, len(delays))
	addrs := make([]string, len(delays))
	for i, d := range delays {
		eng, err := serve.NewServer(lm, scfg)
		if err != nil {
			t.Fatalf("serve.NewServer %d: %v", i, err)
		}
		ns, err := NewServer("127.0.0.1:0", map[string]*serve.Server{"tiny": eng}, ServerConfig{})
		if err != nil {
			t.Fatalf("netserve.NewServer %d: %v", i, err)
		}
		ns.SetDelay(d)
		engines[i], nss[i], addrs[i] = eng, ns, ns.Addr()
		t.Cleanup(func() {
			ns.Close()
			eng.Close()
		})
	}
	r, err := NewRouter("127.0.0.1:0", addrs, RouterConfig{})
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(r.Close)
	return r, nss, engines, inputs
}

func counterValue(r *Router, name string) int64 {
	return r.Metrics().Counter(name).Value()
}

// liveBackends counts the members still in the router's dispatch set.
func liveBackends(r *Router) int {
	r.bmu.Lock()
	defer r.bmu.Unlock()
	return len(r.backends)
}

// TestRouterRoundTrip pins the splice path: responses through the router
// are bitwise identical to direct backend responses, and a load run over
// the router drops nothing.
func TestRouterRoundTrip(t *testing.T) {
	r, _, engines, inputs := startFleet(t, []time.Duration{0, 0})
	c, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i, in := range inputs[:8] {
		want, err := engines[0].Submit(in.X)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Infer("tiny", in.X)
		if err != nil {
			t.Fatalf("routed Infer %d: %v", i, err)
		}
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("routed response %d logit %d: %v, direct %v", i, j, got.Data[j], want.Data[j])
			}
		}
	}

	res := serve.RunClosedLoop(c.Bind("tiny"), inputs, 8, 256)
	if res.Err != nil || res.Dropped != 0 {
		t.Fatalf("routed closed loop: %d dropped, err %v", res.Dropped, res.Err)
	}
	if counterValue(r, "router.routed") < 256 {
		t.Fatalf("router counted %d routed requests", counterValue(r, "router.routed"))
	}
}

// TestRouterStickyDispatch pins the rendezvous policy: an idle fleet
// routes one model's every request to the same member (cache warmth), and
// the choice is deterministic.
func TestRouterStickyDispatch(t *testing.T) {
	r, _, engines, inputs := startFleet(t, []time.Duration{0, 0})
	c, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 16; i++ {
		if _, err := c.Infer("tiny", inputs[i%len(inputs)].X); err != nil {
			t.Fatal(err)
		}
	}
	a, b := engines[0].Stats().Requests, engines[1].Stats().Requests
	if a+b != 16 || (a != 0 && b != 0) {
		t.Fatalf("idle-fleet dispatch split %d/%d, want all 16 on one member", a, b)
	}
}

// TestRouterShedsWithoutBackends pins the shed: a fleet with no live
// members answers with a typed shed error, not a hang.
func TestRouterShedsWithoutBackends(t *testing.T) {
	r, err := NewRouter("127.0.0.1:0", nil, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	lm, inputs := trainAndLoad(t)
	_ = lm
	c, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var re *RemoteError
	if _, err := c.Infer("tiny", inputs[0].X); !errors.As(err, &re) || re.Code != CodeShed {
		t.Fatalf("empty fleet returned %v, want RemoteError{CodeShed}", err)
	}
	if counterValue(r, "router.shed") == 0 {
		t.Fatal("shed counter never moved")
	}
}

// TestRouterZeroDropsAcrossBackendDeath pins the retry guarantee: killing
// a member mid-load (hard close, no goaway) re-dispatches its stranded
// requests; the client sees every answer.
func TestRouterZeroDropsAcrossBackendDeath(t *testing.T) {
	r, nss, _, inputs := startFleet(t, []time.Duration{time.Millisecond, time.Millisecond})
	c, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var res serve.LoadResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = serve.RunClosedLoop(c.Bind("tiny"), inputs, 8, 400)
	}()
	time.Sleep(20 * time.Millisecond) // load is flowing through both members
	nss[0].Close()                    // hard kill: no goaway, stranded in-flight requests
	<-done

	if res.Err != nil {
		t.Fatalf("load run failed across backend death: %v", res.Err)
	}
	if res.Dropped != 0 {
		t.Fatalf("%d requests dropped across backend death, want 0", res.Dropped)
	}
	if got := liveBackends(r); got != 1 {
		t.Fatalf("router still lists %d backends after one died", got)
	}
}

// TestRouterGracefulBackendDrain pins the goaway path router-side: a
// draining member finishes its in-flight work, the router stops choosing
// it, and nothing is dropped — the single-process version of the rolling
// restart.
func TestRouterGracefulBackendDrain(t *testing.T) {
	r, nss, _, inputs := startFleet(t, []time.Duration{time.Millisecond, time.Millisecond})
	c, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var res serve.LoadResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = serve.RunClosedLoop(c.Bind("tiny"), inputs, 8, 400)
	}()
	time.Sleep(20 * time.Millisecond)
	nss[0].Drain(5 * time.Second) // graceful: goaway, in-flight completes
	<-done

	if res.Err != nil || res.Dropped != 0 {
		t.Fatalf("graceful drain dropped %d requests (err %v), want 0", res.Dropped, res.Err)
	}
	if got := liveBackends(r); got != 1 {
		t.Fatalf("router still lists %d backends after a graceful drain", got)
	}
}

// TestRouterMultiModelRollingSwapZeroDrops: two models with different input
// shapes — the tiny hep classifier and an untrained tiny climate detector —
// served side by side by two in-process backends behind one router, the
// first under closed-loop load and the second under open-loop (Poisson)
// arrivals, which do not pause for the drain. Mid-load a third backend joins,
// then the first drains (goaway; in-flight requests complete) and only
// after that are its engines closed: make-before-break across models.
// Nothing may drop, and both sets of books must balance: the router routed
// every request once and shed none, and each model's backend
// serve.requests.model.<arch> counters sum to the requests sent for it.
func TestRouterMultiModelRollingSwapZeroDrops(t *testing.T) {
	hepLM, hepIn := trainAndLoad(t)
	ccfg := climate.ModelConfig{Name: "climate-tiny", Size: 16,
		EncChannels: []int{4, 6}, EncStrides: []int{2, 2},
		DecChannels: []int{4, climate.NumChannels}, WithDecoder: true}
	path := filepath.Join(t.TempDir(), "climate-tiny.d15w")
	if err := nn.SaveFile(path, climate.BuildNet(ccfg, tensor.NewRNG(5)).Params()); err != nil {
		t.Fatal(err)
	}
	reg := serve.NewRegistry()
	serve.RegisterClimate(reg, ccfg.Name, ccfg)
	climLM, err := reg.Load(ccfg.Name, path, serve.Float32)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(9)
	climIn := make([]*serve.LoadInput, 16)
	for i := range climIn {
		x := tensor.New(climLM.InShape()...)
		rng.FillNorm(x, 0, 1)
		climIn[i] = &serve.LoadInput{X: x}
	}
	models := map[string]*serve.LoadedModel{"tiny": hepLM, ccfg.Name: climLM}
	inputs := map[string][]*serve.LoadInput{"tiny": hepIn, ccfg.Name: climIn}

	// A member is one listener in front of one engine per model.
	type member struct {
		ns   *Server
		engs map[string]*serve.Server
	}
	start := func() member {
		m := member{engs: map[string]*serve.Server{}}
		for name, lm := range models {
			eng, err := serve.NewServer(lm, serve.Config{MaxBatch: 8, MaxLinger: time.Millisecond, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			m.engs[name] = eng
		}
		ns, err := NewServer("127.0.0.1:0", m.engs, ServerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		m.ns = ns
		t.Cleanup(func() {
			ns.Close()
			for _, e := range m.engs {
				e.Close()
			}
		})
		return m
	}
	// The member that drains is rendezvous' first choice for "tiny" among
	// all three, so that model's traffic keeps reaching it until its goaway
	// lands, and it is slowed 1ms a batch, so requests are in flight on it
	// when it drains. The last member joins mid-load.
	members := []member{start(), start(), start()}
	sort.Slice(members, func(i, j int) bool {
		return rendezvousScore([]byte("tiny"), members[i].ns.Addr()) > rendezvousScore([]byte("tiny"), members[j].ns.Addr())
	})
	members[0].ns.SetDelay(time.Millisecond)
	r, err := NewRouter("127.0.0.1:0", []string{members[0].ns.Addr(), members[1].ns.Addr()}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	c, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const perModel = 1200
	results := make(map[string]serve.LoadResult)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for name := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var res serve.LoadResult
			if name == ccfg.Name {
				res = serve.RunOpenLoop(c.Bind(name), inputs[name], 2000, perModel, 13)
			} else {
				res = serve.RunClosedLoop(c.Bind(name), inputs[name], 4, perModel)
			}
			mu.Lock()
			results[name] = res
			mu.Unlock()
		}()
	}
	// Swap once traffic is flowing through the fleet.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if counterValue(r, "router.routed") >= perModel/4 {
			break
		}
	}
	if err := r.AddBackend(members[2].ns.Addr()); err != nil {
		t.Fatal(err)
	}
	members[0].ns.Drain(10 * time.Second)
	for _, e := range members[0].engs {
		e.Close()
	}
	wg.Wait()

	for name := range models {
		res := results[name]
		if res.Err != nil || res.Dropped != 0 || res.Requests != perModel {
			t.Fatalf("%s: %d/%d completed, %d dropped (err %v) across the rolling swap, want every one",
				name, res.Requests, perModel, res.Dropped, res.Err)
		}
		var backend int64
		for _, m := range members {
			backend += m.engs[name].Metrics().Snapshot().Counters["serve.requests.model."+models[name].ModelArch]
		}
		if backend != perModel {
			t.Errorf("%s: backends counted %d requests, want %d", name, backend, perModel)
		}
	}
	if routed, shed := counterValue(r, "router.routed"), counterValue(r, "router.shed"); routed != 2*perModel || shed != 0 {
		t.Errorf("router counted %d routed, %d shed; want %d routed, 0 shed", routed, shed, 2*perModel)
	}
	if got := liveBackends(r); got != 2 {
		t.Fatalf("router lists %d live backends after the swap, want 2", got)
	}
}

// TestRouterAllocsPerRequest pins what the router adds to a request's
// allocations: its call record and the payload copy a retry re-sends.
// Blocks of requests sent one at a time alternate between a client dialled
// straight to the backend and one through the router; the fewest of three
// routed-minus-direct differences must stay under 2.5 a request.
func TestRouterAllocsPerRequest(t *testing.T) {
	r, nss, _, inputs := startFleet(t, []time.Duration{0})
	direct, err := Dial(nss[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	routed, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer routed.Close()

	const n = 2000
	x, y := inputs[0].X, tensor.New(2)
	mallocs := func(c *Client) float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < n; i++ {
			if err := c.InferInto("tiny", x, y); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&ms)
		return float64(ms.Mallocs - before)
	}
	mallocs(direct) // warm both paths: pools, id maps, buffers
	mallocs(routed)
	fewest := math.Inf(1)
	for range 3 {
		d := mallocs(direct)
		fewest = min(fewest, (mallocs(routed)-d)/n)
	}
	t.Logf("the router adds %.2f allocations a request", fewest)
	if fewest >= 2.5 {
		t.Fatalf("the router adds %.2f allocations a request, want < 2.5", fewest)
	}
}

// TestRetiredCancelFrameIsDropped: a type-5 frame, the cancel a hedging
// router once sent for its losing attempt, is read whole and dropped by a
// backend and by the router alike. The request it names is still answered,
// and the connection stays open for the next one.
func TestRetiredCancelFrameIsDropped(t *testing.T) {
	r, nss, _, inputs := startFleet(t, []time.Duration{0})
	x := inputs[0].X
	for name, addr := range map[string]string{"server": nss[0].Addr(), "router": r.Addr()} {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			hdr := make([]byte, headerLen)
			for _, id := range []uint64{7, 8} {
				f, err := AppendRequest(nil, id, "tiny", x.Shape, x.Data)
				if err != nil {
					t.Fatal(err)
				}
				if id == 7 {
					f = AppendControl(f, frameCancelRetired, id)
				}
				if _, err := conn.Write(f); err != nil {
					t.Fatal(err)
				}
				h, _, err := ReadFrame(conn, hdr, nil)
				if err != nil || h.Type != FrameResponse || h.ID != id {
					t.Fatalf("request %d: got %+v, %v; want its response", id, h, err)
				}
			}
		})
	}
}

// TestRouterRefusesLyingModelLength: a request whose model-name length
// lies about its payload (zero, or longer than the payload) is answered
// with a bad-shape error on the client's id, as a backend answers it,
// instead of being dropped with the client left waiting; the connection
// then serves a good request.
func TestRouterRefusesLyingModelLength(t *testing.T) {
	r, _, _, inputs := startFleet(t, []time.Duration{0, 0})
	conn, err := net.Dial("tcp", r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	good := mustRequest(t, "tiny", inputs[0].X)
	var stream []byte
	for id, aux := range []int{0, len(good) - headerLen + 1} {
		f := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(f[6:], uint16(aux))
		binary.LittleEndian.PutUint64(f[8:], uint64(id+1))
		stream = append(stream, f...)
	}
	f := append([]byte(nil), good...)
	binary.LittleEndian.PutUint64(f[8:], 3)
	if _, err := conn.Write(append(stream, f...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	hdr := make([]byte, headerLen)
	seen := map[uint64]bool{}
	for len(seen) < 3 {
		h, payload, err := ReadFrame(conn, hdr, nil)
		if err != nil {
			t.Fatalf("after answers to %v: %v", seen, err)
		}
		seen[h.ID] = true
		switch h.ID {
		case 1, 2:
			re := &RemoteError{Code: ErrCode(h.Aux), Msg: string(payload)}
			if h.Type != FrameError || re.Code != CodeBadShape {
				t.Fatalf("request %d answered with a type-%d frame (%v), want a bad-shape error", h.ID, h.Type, re)
			}
		case 3:
			var tw TensorWire
			if h.Type != FrameResponse || DecodeResponse(payload, &tw) != nil || tw.Elems != 2 {
				t.Fatalf("good request answered with a type-%d frame, want 2 logits", h.Type)
			}
		default:
			t.Fatalf("answer for unknown id %d", h.ID)
		}
	}
}

package netserve

import (
	"errors"
	"path/filepath"
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
func startFleet(t *testing.T, delays []time.Duration, rcfg RouterConfig) (*Router, []*Server, []*serve.Server, []*serve.LoadInput) {
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
	r, err := NewRouter("127.0.0.1:0", addrs, rcfg)
	if err != nil {
		t.Fatalf("NewRouter: %v", err)
	}
	t.Cleanup(r.Close)
	return r, nss, engines, inputs
}

func counterValue(r *Router, name string) int64 {
	return r.Metrics().Counter(name).Value()
}

// TestRouterRoundTrip pins the splice path: responses through the router
// are bitwise identical to direct backend responses, and a load run over
// the router drops nothing.
func TestRouterRoundTrip(t *testing.T) {
	r, _, engines, inputs := startFleet(t, []time.Duration{0, 0}, RouterConfig{})
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
	r, _, engines, inputs := startFleet(t, []time.Duration{0, 0}, RouterConfig{})
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

// TestRouterShedsWithoutBackends pins the admission refusal: a fleet with
// no eligible members answers with a typed shed error, not a hang.
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

// TestRouterAdmissionControl pins load shedding on degraded latency: once
// a backend's sliding p99 exceeds the ceiling and no alternative exists,
// new requests are shed rather than queued into the collapse.
func TestRouterAdmissionControl(t *testing.T) {
	// One backend, 2ms injected delay, 1µs ceiling: every request after
	// the 32-observation grace window must shed.
	r, _, _, inputs := startFleet(t, []time.Duration{2 * time.Millisecond},
		RouterConfig{AdmitP99: time.Microsecond})
	c, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var shed int
	for i := 0; i < 64; i++ {
		_, err := c.Infer("tiny", inputs[i%len(inputs)].X)
		var re *RemoteError
		if errors.As(err, &re) && re.Code == CodeShed {
			shed++
		} else if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if shed == 0 {
		t.Fatal("no request was shed despite a degraded-past-ceiling backend")
	}
	if got := counterValue(r, "router.shed"); got != int64(shed) {
		t.Fatalf("shed counter %d, clients saw %d", got, shed)
	}
}

// TestRouterHedgingWins pins the hedge machinery end to end: with one
// slow member and one fast one, requests stuck on the slow backend get a
// second attempt that answers first, the loser is cancelled, and every
// response is still correct.
func TestRouterHedgingWins(t *testing.T) {
	r, nss, engines, inputs := startFleet(t, []time.Duration{0, 0},
		RouterConfig{Hedge: true, HedgeMin: 2 * time.Millisecond})
	c, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Probe to learn which member rendezvous prefers for this model, then
	// degrade exactly that one — the hedge race is now guaranteed to run.
	if _, err := c.Infer("tiny", inputs[0].X); err != nil {
		t.Fatal(err)
	}
	preferred := 0
	if engines[1].Stats().Requests > 0 {
		preferred = 1
	}
	nss[preferred].SetDelay(25 * time.Millisecond)

	want, err := engines[1-preferred].Submit(inputs[0].X)
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y, err := c.Infer("tiny", inputs[0].X)
			if err != nil {
				errs <- err
				return
			}
			for j := range want.Data {
				if y.Data[j] != want.Data[j] {
					errs <- errors.New("hedged response does not match the model")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The preferred member is 25ms slow and the hedge deadline is 2ms:
	// hedges must have fired, and the fast member must have won races.
	if counterValue(r, "router.hedged") == 0 {
		t.Fatal("slow preferred backend but no hedge ever fired")
	}
	if counterValue(r, "router.hedge_wins") == 0 {
		t.Fatal("hedges fired but the fast backend never won the race")
	}
}

// TestRouterZeroDropsAcrossBackendDeath pins the retry guarantee: killing
// a member mid-load (hard close, no goaway) re-dispatches its stranded
// requests; the client sees every answer.
func TestRouterZeroDropsAcrossBackendDeath(t *testing.T) {
	r, nss, _, inputs := startFleet(t, []time.Duration{time.Millisecond, time.Millisecond}, RouterConfig{})
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
	if got := len(r.Backends()); got != 1 {
		t.Fatalf("router still lists %d backends after one died", got)
	}
}

// TestRouterGracefulBackendDrain pins the goaway path router-side: a
// draining member finishes its in-flight work, the router stops choosing
// it, and nothing is dropped — the single-process version of the rolling
// restart.
func TestRouterGracefulBackendDrain(t *testing.T) {
	r, nss, _, inputs := startFleet(t, []time.Duration{time.Millisecond, time.Millisecond}, RouterConfig{})
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
	if got := len(r.Backends()); got != 1 {
		t.Fatalf("router still lists %d backends after a graceful drain", got)
	}
}

// TestRouterPerModelCounters is the satellite-3 regression: two models
// routed through one router tally routed (and shed) independently, while
// the fleet-wide counters keep the totals.
func TestRouterPerModelCounters(t *testing.T) {
	lm, inputs := trainAndLoad(t)
	scfg := serve.Config{MaxBatch: 8, MaxLinger: time.Millisecond, Workers: 1}
	engA, err := serve.NewServer(lm, scfg)
	if err != nil {
		t.Fatal(err)
	}
	engB, err := serve.NewServer(lm, scfg)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := NewServer("127.0.0.1:0", map[string]*serve.Server{"tiny": engA, "tiny2": engB}, ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter("127.0.0.1:0", []string{ns.Addr()}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		r.Close()
		ns.Close()
		engA.Close()
		engB.Close()
	})
	c, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 6; i++ {
		if _, err := c.Infer("tiny", inputs[i].X); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Infer("tiny2", inputs[i].X); err != nil {
			t.Fatal(err)
		}
	}

	if routed, _, shed := r.ModelCounts("tiny"); routed != 6 || shed != 0 {
		t.Fatalf("tiny counts routed=%d shed=%d, want 6/0", routed, shed)
	}
	if routed, _, shed := r.ModelCounts("tiny2"); routed != 3 || shed != 0 {
		t.Fatalf("tiny2 counts routed=%d shed=%d, want 3/0", routed, shed)
	}
	if got := counterValue(r, "router.routed"); got != 9 {
		t.Fatalf("fleet-wide routed = %d, want the 9 total", got)
	}
	snap := r.Metrics().Snapshot()
	if snap.Counters["router.routed.model.tiny"] != 6 || snap.Counters["router.routed.model.tiny2"] != 3 {
		t.Fatalf("registry per-model counters %d/%d, want 6/3",
			snap.Counters["router.routed.model.tiny"], snap.Counters["router.routed.model.tiny2"])
	}
	if routed, hedged, shed := r.ModelCounts("never-sent"); routed != 0 || hedged != 0 || shed != 0 {
		t.Fatal("unknown model must report zeroes")
	}
}

// TestRouterPerModelShed: with no eligible backend, each model's shed
// counter moves independently.
func TestRouterPerModelShed(t *testing.T) {
	r, err := NewRouter("127.0.0.1:0", nil, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	_, inputs := trainAndLoad(t)
	c, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var re *RemoteError
	for i := 0; i < 2; i++ {
		if _, err := c.Infer("m1", inputs[0].X); !errors.As(err, &re) || re.Code != CodeShed {
			t.Fatalf("want shed, got %v", err)
		}
	}
	if _, err := c.Infer("m2", inputs[0].X); !errors.As(err, &re) || re.Code != CodeShed {
		t.Fatalf("want shed, got %v", err)
	}
	if _, _, shed := r.ModelCounts("m1"); shed != 2 {
		t.Fatalf("m1 shed = %d, want 2", shed)
	}
	if _, _, shed := r.ModelCounts("m2"); shed != 1 {
		t.Fatalf("m2 shed = %d, want 1", shed)
	}
	if got := counterValue(r, "router.shed"); got != 3 {
		t.Fatalf("fleet-wide shed = %d, want 3", got)
	}
}

// TestRouterMultiModelRollingSwapZeroDrops: two models with different input
// shapes — the tiny hep classifier and an untrained tiny climate detector —
// served side by side by two in-process backends behind one router, under
// concurrent closed-loop load per model. Mid-load a third backend joins,
// then the first drains (goaway; in-flight requests complete) and only
// after that are its engines closed: make-before-break across models.
// Nothing may drop, and both sets of books must balance per model: the
// router's routed+hedged and the backends' serve.requests.model.<arch>
// counters each equal the requests sent.
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
			res := serve.RunClosedLoop(c.Bind(name), inputs[name], 4, perModel)
			mu.Lock()
			results[name] = res
			mu.Unlock()
		}()
	}
	// Swap once both models have traffic flowing.
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		a, _, _ := r.ModelCounts("tiny")
		b, _, _ := r.ModelCounts(ccfg.Name)
		if a >= perModel/8 && b >= perModel/8 {
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
		if routed, hedged, shed := r.ModelCounts(name); routed+hedged != perModel || shed != 0 {
			t.Errorf("%s: router counted routed %d + hedged %d, shed %d; want %d routed, 0 shed",
				name, routed, hedged, shed, perModel)
		}
		var backend int64
		for _, m := range members {
			backend += m.engs[name].Metrics().Snapshot().Counters["serve.requests.model."+models[name].ModelArch]
		}
		if backend != perModel {
			t.Errorf("%s: backends counted %d requests, want %d", name, backend, perModel)
		}
	}
	if got := len(r.Backends()); got != 2 {
		t.Fatalf("router lists %d live backends after the swap, want 2", got)
	}
}

// TestLatencyWindowKeepsLastK: the router's per-backend window holds
// exactly the most recent Window latencies, so admission and hedge
// deadlines track a member's present, not its history.
func TestLatencyWindowKeepsLastK(t *testing.T) {
	const k = 8
	w := latencyWindow{vals: make([]float64, 0, k)}
	for i := 0; i < 20; i++ {
		w.add(float64(i))
	}
	if w.n != 20 || len(w.vals) != k {
		t.Fatalf("window holds %d of %d observations, want %d of 20", len(w.vals), w.n, k)
	}
	if lo, hi := w.quantile(0), w.quantile(1); lo != 12 || hi != 19 {
		t.Fatalf("window spans [%v, %v], want exactly the last %d values [12, 19]", lo, hi, k)
	}
	if (&latencyWindow{}).quantile(0.5) != 0 {
		t.Fatal("empty window quantile must be 0")
	}
}

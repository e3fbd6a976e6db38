package netserve

import (
	"os"
	"testing"
	"time"

	"deep15pf/internal/serve"
)

// TestNetserveBackendProcess is not a test in the usual sense: it is the
// body of a backend *process*. The fleet tests re-exec this test binary
// with -test.run pinned to this function and the checkpoint path (and
// optionally an injected per-request delay) in the environment; without
// the environment it skips immediately. The process loads the checkpoint,
// serves it on an ephemeral port, prints the listen banner for the parent,
// and exits cleanly on SIGTERM via the drain protocol.
func TestNetserveBackendProcess(t *testing.T) {
	ckpt := os.Getenv("NETSERVE_BACKEND_CKPT")
	if ckpt == "" {
		t.Skip("fleet-test helper process; runs only when re-exec'd with NETSERVE_BACKEND_CKPT")
	}
	r := serve.NewRegistry()
	serve.RegisterHEP(r, "tiny", tinyHEPCfg())
	lm, err := r.Load("tiny", ckpt, serve.Float32)
	if err != nil {
		t.Fatalf("backend process: Load: %v", err)
	}
	eng, err := serve.NewServer(lm, serve.Config{MaxBatch: 8, MaxLinger: time.Millisecond, Workers: 2})
	if err != nil {
		t.Fatalf("backend process: NewServer: %v", err)
	}
	engines := map[string]*serve.Server{"tiny": eng}
	ns, err := NewServer("127.0.0.1:0", engines, ServerConfig{})
	if err != nil {
		t.Fatalf("backend process: listen: %v", err)
	}
	if d, err := time.ParseDuration(os.Getenv("NETSERVE_BACKEND_DELAY")); err == nil {
		ns.SetDelay(d)
	}
	ns.DrainOnSignal(os.Stdout, engines, 10*time.Second)
}

// startBackendProc re-execs this test binary as a backend process serving
// the checkpoint with delay injected into every request, returning once it
// is listening.
func startBackendProc(ckpt string, delay time.Duration) (*Proc, error) {
	return StartProc(
		[]string{os.Args[0], "-test.run=^TestNetserveBackendProcess$"},
		[]string{"NETSERVE_BACKEND_CKPT=" + ckpt, "NETSERVE_BACKEND_DELAY=" + delay.String()},
		30*time.Second,
	)
}

func spawnBackend(t *testing.T, ckpt string, delay time.Duration) *Proc {
	t.Helper()
	p, err := startBackendProc(ckpt, delay)
	if err != nil {
		t.Fatalf("spawnBackend: %v", err)
	}
	return p
}

// TestFleetRollingRestartZeroDrops is the acceptance gate for the drain
// protocol across real process boundaries: a router over two backend
// *processes*, live load, and a make-before-break rolling restart of a
// member — under closed-loop, then open-loop (Poisson) load, then through
// a hedging router with one member slowed — with zero dropped requests,
// every time.
func TestFleetRollingRestartZeroDrops(t *testing.T) {
	ckpt, inputs := trainAndSave(t)
	p1 := spawnBackend(t, ckpt, 0)
	p2 := spawnBackend(t, ckpt, 0)
	procs := []*Proc{p1, p2}
	restart := func() (*Proc, error) { return startBackendProc(ckpt, 0) }
	t.Cleanup(func() {
		for _, p := range procs {
			p.Kill()
		}
	})

	r, err := NewRouter("127.0.0.1:0", []string{p1.Addr, p2.Addr}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	c, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Phase 1: closed-loop load while member 1 is rolling-restarted.
	var res serve.LoadResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = serve.RunClosedLoop(c.Bind("tiny"), inputs, 8, 600)
	}()
	time.Sleep(20 * time.Millisecond) // load is flowing through the fleet
	np, err := RollingRestart(r, p1, restart, 15*time.Second)
	if err != nil {
		t.Fatalf("rolling restart (closed loop): %v", err)
	}
	procs[0] = np
	<-done
	if res.Err != nil {
		t.Fatalf("closed-loop load failed across the restart: %v", res.Err)
	}
	if res.Dropped != 0 {
		t.Fatalf("closed loop dropped %d requests across the rolling restart, want 0", res.Dropped)
	}
	if got := len(r.Backends()); got != 2 {
		t.Fatalf("fleet has %d members after the restart, want 2", got)
	}

	// Phase 2: open-loop (Poisson) load while member 2 is restarted —
	// arrivals do not pause for the drain, so this is the harder gate.
	var ores serve.LoadResult
	odone := make(chan struct{})
	go func() {
		defer close(odone)
		ores = serve.RunOpenLoop(c.Bind("tiny"), inputs, 2000, 400, 13)
	}()
	time.Sleep(20 * time.Millisecond)
	np2, err := RollingRestart(r, p2, restart, 15*time.Second)
	if err != nil {
		t.Fatalf("rolling restart (open loop): %v", err)
	}
	procs[1] = np2
	<-odone
	if ores.Err != nil {
		t.Fatalf("open-loop load failed across the restart: %v", ores.Err)
	}
	if ores.Dropped != 0 || ores.Requests != 400 {
		t.Fatalf("open loop completed %d/400 with %d dropped across the rolling restart, want 400/0",
			ores.Requests, ores.Dropped)
	}

	// Phase 3: a hedging router over a member slowed 4ms a request and a
	// healthy one, which is rolling-restarted under closed-loop load. The
	// slow member's requests race a second attempt at a healthy member.
	slow := spawnBackend(t, ckpt, 4*time.Millisecond)
	procs = append(procs, slow)
	hr, err := NewRouter("127.0.0.1:0", []string{slow.Addr, procs[0].Addr}, RouterConfig{Hedge: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hr.Close)
	hc, err := Dial(hr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	var hres serve.LoadResult
	hdone := make(chan struct{})
	go func() {
		defer close(hdone)
		hres = serve.RunClosedLoop(hc.Bind("tiny"), inputs, 8, 600)
	}()
	time.Sleep(20 * time.Millisecond)
	np3, err := RollingRestart(hr, procs[0], restart, 15*time.Second)
	if err != nil {
		t.Fatalf("rolling restart (hedged): %v", err)
	}
	procs[0] = np3
	<-hdone
	if hres.Err != nil || hres.Dropped != 0 {
		t.Fatalf("hedged closed loop dropped %d requests across the rolling restart (err %v), want 0",
			hres.Dropped, hres.Err)
	}
	if counterValue(hr, "router.hedged") == 0 {
		t.Fatal("one member slowed 4ms a request, but the hedging router never hedged")
	}

	// Every member drains cleanly on request.
	for _, p := range procs {
		if err := p.Drain(15 * time.Second); err != nil {
			t.Fatalf("member did not drain cleanly: %v", err)
		}
	}
	procs = nil
}

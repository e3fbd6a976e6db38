package netserve

import (
	"bufio"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"deep15pf/internal/serve"
)

// TestNetserveBackendProcess is not a test in the usual sense: it is the
// body of a backend *process*, what `deepserve -listen` runs.
// TestDrainOnSignalProcessZeroDrops re-execs this test binary with
// -test.run pinned to this function and the checkpoint path in the
// environment; without the environment it skips immediately. The process
// loads the checkpoint, serves it on an ephemeral port, prints the listen
// banner, and exits cleanly on SIGTERM via the drain protocol.
func TestNetserveBackendProcess(t *testing.T) {
	ckpt := os.Getenv("NETSERVE_BACKEND_CKPT")
	if ckpt == "" {
		t.Skip("backend helper process; runs only when re-exec'd with NETSERVE_BACKEND_CKPT")
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
	ns.DrainOnSignal(os.Stdout, engines, 10*time.Second)
}

// TestDrainOnSignalProcessZeroDrops is the drain protocol across a real
// process boundary: a router over a backend process, closed-loop load, an
// in-process member joining mid-load, then SIGTERM to the process. The
// process must answer what it holds, exit cleanly inside its drain
// timeout, and the client must see zero dropped requests.
func TestDrainOnSignalProcessZeroDrops(t *testing.T) {
	ckpt, inputs := trainAndSave(t)
	cmd := exec.Command(os.Args[0], "-test.run=^TestNetserveBackendProcess$")
	cmd.Env = append(os.Environ(), "NETSERVE_BACKEND_CKPT="+ckpt)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	addrs := make(chan string, 1)
	exited := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), ListenBanner); ok {
				addrs <- addr
			}
		}
		close(addrs)
		exited <- cmd.Wait()
	}()
	var procAddr string
	select {
	case addr, ok := <-addrs:
		if !ok {
			t.Fatalf("backend process exited before printing %q: %v", ListenBanner, <-exited)
		}
		procAddr = addr
	case <-time.After(30 * time.Second):
		t.Fatalf("backend process never printed %q", ListenBanner)
	}

	local, _, _ := startBackend(t, ServerConfig{}, serve.Config{MaxBatch: 8, MaxLinger: time.Millisecond, Workers: 2})
	r, err := NewRouter("127.0.0.1:0", []string{procAddr}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	c, err := Dial(r.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var res serve.LoadResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		res = serve.RunClosedLoop(c.Bind("tiny"), inputs, 8, 600)
	}()
	// Make before break: once load flows through the process, a second
	// member joins, then the process is signalled.
	for deadline := time.Now().Add(10 * time.Second); counterValue(r, "router.routed") < 100 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if err := r.AddBackend(local.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("backend process did not exit cleanly after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("backend process still running 15s after SIGTERM")
	}
	<-done
	if res.Err != nil || res.Dropped != 0 || res.Requests != 600 {
		t.Fatalf("closed loop completed %d/600 with %d dropped (err %v) across the SIGTERM drain, want 600/0",
			res.Requests, res.Dropped, res.Err)
	}
}

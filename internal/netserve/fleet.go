package netserve

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"deep15pf/internal/serve"
)

// ListenBanner is the line a backend process prints to stdout once its
// listener is bound — the parent scans for it to learn the (ephemeral)
// address. Everything after the prefix is the address.
const ListenBanner = "netserve listening on "

// DrainOnSignal prints the listen banner on banner, blocks until SIGTERM
// or SIGINT, then runs the drain protocol (goaway to every connection,
// in-flight requests complete) and closes the serving engines — the
// orderly exit path a fleet member takes during a rolling restart. The
// handler is installed before the banner goes out, so a parent that
// signals the moment it reads the banner still gets a drain, not the
// default SIGTERM death.
func (s *Server) DrainOnSignal(banner io.Writer, engines map[string]*serve.Server, timeout time.Duration) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGTERM, os.Interrupt)
	fmt.Fprintf(banner, "%s%s\n", ListenBanner, s.Addr())
	<-ch
	signal.Stop(ch)
	s.Drain(timeout)
	for _, e := range engines {
		e.Close()
	}
}

// Proc is one backend OS process under fleet management.
type Proc struct {
	Cmd  *exec.Cmd
	Addr string

	waitOnce sync.Once
	waitErr  error
	done     chan struct{}
}

// StartProc launches argv[0] with the given arguments and environment
// additions, then scans its stdout for the listen banner. The returned
// Proc is serving at Addr. Stderr passes through to the parent's.
func StartProc(argv []string, extraEnv []string, timeout time.Duration) (*Proc, error) {
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Env = append(os.Environ(), extraEnv...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &Proc{Cmd: cmd, done: make(chan struct{})}

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, ListenBanner) {
				select {
				case addrCh <- strings.TrimSpace(strings.TrimPrefix(line, ListenBanner)):
				default:
				}
			}
		}
	}()
	go func() {
		p.waitErr = cmd.Wait()
		close(p.done)
	}()

	select {
	case addr := <-addrCh:
		p.Addr = addr
		return p, nil
	case <-p.done:
		return nil, fmt.Errorf("netserve: backend process exited before binding: %v", p.waitErr)
	case <-time.After(timeout):
		cmd.Process.Kill()
		return nil, fmt.Errorf("netserve: backend process never printed %q", ListenBanner)
	}
}

// Drain asks the process to exit gracefully (SIGTERM → goaway → drain)
// and waits up to timeout; a process that overstays is killed and the
// overstay reported.
func (p *Proc) Drain(timeout time.Duration) error {
	if err := p.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.done:
		return p.waitErr
	case <-time.After(timeout):
		p.Cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("netserve: backend %s ignored SIGTERM for %v", p.Addr, timeout)
	}
}

// Kill force-terminates the process.
func (p *Proc) Kill() {
	p.Cmd.Process.Kill()
	<-p.done
}

// RollingRestart replaces old with a freshly started member,
// make-before-break: the replacement joins the dispatch set before the
// old member is asked to drain, so capacity never dips and — with the
// goaway protocol honouring every in-flight request — no request is
// dropped. start launches the replacement; the router learns both edges,
// and RollingRestart returns once it has dropped the old member.
func RollingRestart(r *Router, old *Proc, start func() (*Proc, error), timeout time.Duration) (*Proc, error) {
	np, err := start()
	if err != nil {
		return nil, fmt.Errorf("netserve: rolling restart could not start the replacement: %w", err)
	}
	if err := r.AddBackend(np.Addr); err != nil {
		np.Kill()
		return nil, err
	}
	if err := old.Drain(timeout); err != nil {
		return np, fmt.Errorf("netserve: rolling restart: old member: %w", err)
	}
	if err := r.awaitReaped(old.Addr, timeout); err != nil {
		return np, fmt.Errorf("netserve: rolling restart: %w", err)
	}
	return np, nil
}

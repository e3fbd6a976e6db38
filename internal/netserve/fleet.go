package netserve

import (
	"fmt"
	"io"
	"os"
	"os/signal"
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

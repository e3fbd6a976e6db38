package netserve

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"deep15pf/internal/obs"
)

// RouterConfig parameterises the fleet router.
type RouterConfig struct {
	// Trace attaches Route and NetWait spans to a tracer. nil records
	// nothing.
	Trace *obs.Tracer
}

// Router is the fleet front door: it speaks the same D15R protocol to
// clients, forwards each request to one backend, chosen by rendezvous hash
// with a least-loaded tiebreak, and splices the response bytes back under
// the client's id — tensors are never decoded, so routing cost is
// independent of payload meaning. A member that sends goaway stops getting
// new requests and finishes its own; the requests a dead member stranded
// are forwarded again to a live one, so a request is lost only if every
// backend is gone, and then it is answered CodeShed.
type Router struct {
	ln  net.Listener
	cfg RouterConfig

	reg     *obs.Registry
	routed  *obs.Counter
	shed    *obs.Counter
	retries *obs.Counter

	bmu      sync.Mutex
	backends []*backend

	pmu     sync.Mutex
	pend    map[uint64]*routerCall // by backend-side id
	nextBID atomic.Uint64

	mu       sync.Mutex
	conns    map[*rconn]struct{}
	closed   bool
	laneSeq  int
	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
}

// backend is one fleet member as the router sees it: a multiplexed
// connection, its writer, and a live in-flight count for the tiebreak and
// the drain.
type backend struct {
	addr string
	conn net.Conn
	w    *frameWriter // spliced requests

	inflight atomic.Int64
	draining atomic.Bool
	dead     atomic.Bool
	lane     *obs.Lane
	wg       sync.WaitGroup
}

// routerCall is one client request in flight through the router, forwarded
// to one backend at a time. b and sent are written under Router.pmu when
// the call enters pend, and read by whoever takes it out.
type routerCall struct {
	rc       *rconn
	clientID uint64
	modelLen int
	reqBuf   []byte // request payload copy (model+dims+floats) for forwards and retries

	b    *backend
	sent time.Time
}

// rconn is one client-facing connection on the router.
type rconn struct {
	r        *Router
	conn     net.Conn
	w        *frameWriter // responses and error frames
	inflight sync.WaitGroup
	lane     *obs.Lane
}

// NewRouter listens on addr and routes to backends (dialed immediately).
func NewRouter(addr string, backends []string, cfg RouterConfig) (*Router, error) {
	reg := obs.NewRegistry()
	r := &Router{
		cfg:     cfg,
		reg:     reg,
		routed:  reg.Counter("router.routed"),
		shed:    reg.Counter("router.shed"),
		retries: reg.Counter("router.retries"),
		pend:    make(map[uint64]*routerCall),
		conns:   make(map[*rconn]struct{}),
	}
	for _, b := range backends {
		if err := r.AddBackend(b); err != nil {
			r.Close()
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		r.Close()
		return nil, err
	}
	r.ln = ln
	r.acceptWG.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr is the bound client-facing address.
func (r *Router) Addr() string { return r.ln.Addr().String() }

// Metrics exposes the router's counter registry: router.routed (forwards
// to a backend, retries included), router.shed (requests answered
// CodeShed) and router.retries (forwards of requests a dead backend
// stranded).
func (r *Router) Metrics() *obs.Registry { return r.reg }

// AddBackend dials addr and adds it to the dispatch set — the second half
// of a make-before-break rolling restart.
func (r *Router) AddBackend(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("netserve: backend %s: %w", addr, err)
	}
	b := &backend{
		addr: addr,
		conn: conn,
		w:    newFrameWriter(conn),
		lane: r.cfg.Trace.Lane("router.b:" + addr),
	}
	r.bmu.Lock()
	r.backends = append(r.backends, b)
	r.bmu.Unlock()
	b.wg.Add(1)
	go r.backendReader(b)
	return nil
}

// Close tears down the listener, client connections, and backend
// connections.
func (r *Router) Close() {
	r.mu.Lock()
	r.closed = true
	conns := make([]*rconn, 0, len(r.conns))
	for c := range r.conns {
		conns = append(conns, c)
	}
	r.mu.Unlock()
	if r.ln != nil {
		r.ln.Close()
		r.acceptWG.Wait()
	}
	for _, c := range conns {
		c.conn.Close()
	}
	r.connWG.Wait()
	r.bmu.Lock()
	bs := append([]*backend(nil), r.backends...)
	r.bmu.Unlock()
	for _, b := range bs {
		b.conn.Close()
		b.wg.Wait()
	}
}

func (r *Router) acceptLoop() {
	defer r.acceptWG.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			conn.Close()
			continue
		}
		c := &rconn{
			r:    r,
			conn: conn,
			w:    newFrameWriter(conn),
			lane: r.cfg.Trace.Lane(fmt.Sprintf("router.c%d", r.laneSeq)),
		}
		r.laneSeq++
		r.conns[c] = struct{}{}
		r.mu.Unlock()
		r.connWG.Add(1)
		go c.run()
	}
}

func (c *rconn) run() {
	defer c.r.connWG.Done()
	c.reader()
	c.inflight.Wait()
	c.w.flushWait() // the last answers go out before the close
	c.conn.Close()
	c.r.mu.Lock()
	delete(c.r.conns, c)
	c.r.mu.Unlock()
}

// reader parses client frames and queues each request's forward on its
// backend's writer. It flushes the writers it touched only before a read
// that could block, so the forwards of every frame one read brought in go
// out together, and once more on exit, so a closing client's last requests
// still reach a backend (run waits for their answers). The Route phase span
// covers receive→forward-enqueue for each request: frame parse, backend
// pick, splice enqueue.
func (c *rconn) reader() {
	var (
		br     = bufio.NewReaderSize(c.conn, readBufSize)
		hdr    = make([]byte, headerLen)
		buf    []byte
		out    touched
		tracer = c.lane.Tracer()
	)
	defer out.flush()
	for {
		if !frameBuffered(br) {
			out.flush()
		}
		h, payload, err := ReadFrame(br, hdr, buf)
		buf = payload
		if err != nil {
			return
		}
		if h.Type != FrameRequest {
			continue // goaways and retired cancels from clients are not routed
		}
		var t0 int64
		if tracer != nil {
			t0 = tracer.Now()
		}
		model, merr := RequestModel(h, payload)
		if merr != nil {
			// The header lies about its own payload: refuse it on the
			// client's id, as a backend would.
			c.w.queue(func(b []byte) []byte {
				return AppendError(b, h.ID, CodeBadShape, merr.Error())
			})
			out.add(c.w)
			continue
		}
		call := &routerCall{
			rc:       c,
			clientID: h.ID,
			modelLen: len(model),
			reqBuf:   append([]byte(nil), payload...),
		}
		c.inflight.Add(1)
		c.r.dispatch(call, nil, &out)
		if tracer != nil {
			c.lane.Record(obs.PhaseRoute, t0, tracer.Now())
		}
	}
}

// finish queues the call's answer, spliced under the client's id, on the
// client connection's writer; out collects the writer for the caller to
// flush.
func (call *routerCall) finish(t FrameType, aux uint16, payload []byte, out *touched) {
	w := call.rc.w
	w.queue(func(b []byte) []byte {
		if t == FrameError {
			return AppendError(b, call.clientID, ErrCode(aux), string(payload))
		}
		return AppendResponseRaw(b, call.clientID, payload)
	})
	call.rc.inflight.Done()
	out.add(w)
}

// dispatch queues call's forward on the best live backend's writer, or
// answers it CodeShed when there is none; out collects the writer it queued
// on (the backend's, or the client's for a shed) for the caller to flush.
// exclude removes one backend from consideration (a retry's corpse).
func (r *Router) dispatch(call *routerCall, exclude *backend, out *touched) {
	b := r.pick(call.reqBuf[:call.modelLen], exclude)
	if b == nil {
		r.shed.Inc()
		call.finish(FrameError, uint16(CodeShed), []byte("no live backend"), out)
		return
	}
	bid := r.nextBID.Add(1)
	sent := time.Now()
	r.pmu.Lock()
	if b.dead.Load() {
		// The backend died between pick and insert. pmu fences this
		// against reapBackend's stranded scan: either the entry lands
		// before the scan (reap re-dispatches it) or this check sees dead
		// and re-picks — never a silently stranded entry.
		r.pmu.Unlock()
		r.dispatch(call, b, out)
		return
	}
	call.b, call.sent = b, sent
	r.pend[bid] = call
	b.inflight.Add(1)
	r.pmu.Unlock()
	r.routed.Inc()
	// If the backend dies before this goes out, the write is dropped and
	// reapBackend re-dispatches the pend entry.
	b.w.queue(func(buf []byte) []byte {
		return AppendRequestRaw(buf, bid, call.modelLen, call.reqBuf)
	})
	out.add(b.w)
}

// pick chooses a backend for model: rendezvous (highest-random-weight)
// hash over the eligible set, with a least-loaded tiebreak between the
// top two candidates — sticky by model for cache warmth, load-aware when
// the preferred member is busy.
func (r *Router) pick(model []byte, exclude *backend) *backend {
	r.bmu.Lock()
	defer r.bmu.Unlock()
	var best, second *backend
	var bs, ss uint64
	for _, b := range r.backends {
		if b == exclude || b.dead.Load() || b.draining.Load() {
			continue
		}
		s := rendezvousScore(model, b.addr)
		switch {
		case best == nil || s > bs:
			second, ss = best, bs
			best, bs = b, s
		case second == nil || s > ss:
			second, ss = b, s
		}
	}
	if best == nil {
		return nil
	}
	if second != nil && second.inflight.Load() < best.inflight.Load() {
		return second
	}
	return best
}

// rendezvousScore hashes (model, backend) — each backend scores every
// model independently, so removing one member remaps only its own keys.
func rendezvousScore(model []byte, addr string) uint64 {
	h := fnv.New64a()
	h.Write(model)
	var sep = [1]byte{0}
	h.Write(sep[:])
	var ab [64]byte
	h.Write(append(ab[:0], addr...))
	return h.Sum64()
}

// backendReader demultiplexes backend responses back to their calls,
// queueing each on its client connection's writer and flushing the ones it
// touched before a read that could block, as rconn.reader does. The NetWait
// span covers forward→response.
func (r *Router) backendReader(b *backend) {
	defer b.wg.Done()
	var (
		br     = bufio.NewReaderSize(b.conn, readBufSize)
		hdr    = make([]byte, headerLen)
		buf    []byte
		out    touched
		tracer = b.lane.Tracer()
	)
	for {
		if !frameBuffered(br) {
			out.flush()
		}
		h, payload, err := ReadFrame(br, hdr, buf)
		buf = payload
		if err != nil {
			break
		}
		switch h.Type {
		case FrameResponse, FrameError:
			r.pmu.Lock()
			call, ok := r.pend[h.ID]
			delete(r.pend, h.ID)
			r.pmu.Unlock()
			if !ok {
				continue // an id this router never sent
			}
			b.inflight.Add(-1)
			if tracer != nil {
				b.lane.Record(obs.PhaseNetWait, tracer.At(call.sent), tracer.Now())
			}
			call.finish(h.Type, h.Aux, payload, &out)
		case FrameGoaway:
			// The backend is draining: stop dispatching, let in-flight
			// requests land, close when the last one does.
			b.draining.Store(true)
			if b.inflight.Load() == 0 {
				b.conn.Close()
			}
		}
		// A draining backend's connection closes once nothing is in
		// flight (the response that just landed may have been the last).
		if b.draining.Load() && b.inflight.Load() == 0 {
			b.conn.Close()
		}
	}
	out.flush()
	r.reapBackend(b)
}

// reapBackend handles a dead backend connection: remove it from the
// dispatch set and re-dispatch every call it stranded — the zero-drop
// guarantee across a member's death or restart.
func (r *Router) reapBackend(b *backend) {
	if !b.dead.CompareAndSwap(false, true) {
		return
	}
	b.conn.Close()

	r.bmu.Lock()
	for i, x := range r.backends {
		if x == b {
			r.backends = append(r.backends[:i], r.backends[i+1:]...)
			break
		}
	}
	r.bmu.Unlock()

	r.pmu.Lock()
	var stranded []*routerCall
	for bid, call := range r.pend {
		if call.b == b {
			delete(r.pend, bid)
			stranded = append(stranded, call)
		}
	}
	r.pmu.Unlock()
	var out touched
	for _, call := range stranded {
		b.inflight.Add(-1)
		r.retries.Inc()
		r.dispatch(call, b, &out)
	}
	out.flush()
}

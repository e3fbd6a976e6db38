package netserve

import (
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"deep15pf/internal/obs"
)

// RouterConfig parameterises the fleet router.
type RouterConfig struct {
	// Hedge enables tail-cutting request hedging: when a request has
	// waited past an adaptive deadline (the primary backend's recent
	// HedgeQuantile latency, floored at HedgeMin), a second attempt fires
	// at a different backend; the first answer wins and the loser is
	// cancelled by id.
	Hedge bool
	// HedgeQuantile is the sliding-window quantile that sets the hedge
	// deadline. Default 0.95 — hedging the slowest ~5% doubles almost no
	// load but removes the stragglers from the tail.
	HedgeQuantile float64
	// HedgeMin floors the hedge deadline so cold windows cannot hedge
	// every request. Default 1ms.
	HedgeMin time.Duration
	// AdmitP99 is the admission-control ceiling: a backend whose sliding
	// p99 exceeds it stops receiving new requests, and when every backend
	// is over, requests are shed with a typed error instead of queueing
	// into a collapsed fleet. Zero disables shedding.
	AdmitP99 time.Duration
	// Window is how many recent latencies each backend's admission and
	// hedge quantiles cover. Default 1024.
	Window int
	// Trace attaches Route and NetWait spans to a tracer. nil records
	// nothing.
	Trace *obs.Tracer
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.HedgeQuantile <= 0 || c.HedgeQuantile >= 1 {
		c.HedgeQuantile = 0.95
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = time.Millisecond
	}
	if c.Window <= 0 {
		c.Window = 1024
	}
	return c
}

// Router is the fleet front door: it speaks the same D15R protocol to
// clients, dispatches each request to a backend by rendezvous hash with a
// least-loaded tiebreak, and splices the response bytes back under the
// client's id — tensors are never decoded, so routing cost is independent
// of payload meaning. It sheds load when the whole fleet degrades, hedges
// tail requests when configured, and retries requests stranded by a dead
// backend (a request is lost only if every backend is gone).
type Router struct {
	ln  net.Listener
	cfg RouterConfig

	reg       *obs.Registry
	routed    *obs.Counter
	hedged    *obs.Counter
	hedgeWins *obs.Counter
	shed      *obs.Counter
	retries   *obs.Counter

	// perModel shadows the routed/hedged/shed counters per model name, so a
	// zoo router fronting several workloads can attribute traffic. Entries
	// materialise lazily on the first request naming a model; lookups on the
	// dispatch path are a map hit under pcmu (string(model) on a hit does
	// not allocate).
	pcmu     sync.Mutex
	perModel map[string]*modelCounters

	bmu      sync.Mutex
	backends []*backend

	pmu     sync.Mutex
	pend    map[uint64]*attempt
	nextBID atomic.Uint64

	mu       sync.Mutex
	conns    map[*rconn]struct{}
	closed   bool
	laneSeq  int
	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
}

// backend is one fleet member as the router sees it: a multiplexed
// connection, a live in-flight count, and a sliding latency window that
// feeds the hedge deadline and the admission check.
type backend struct {
	addr string
	conn net.Conn
	wch  chan fwd
	// gone closes when the backend dies; wch is never closed, so senders
	// select against gone instead of risking a closed-channel panic.
	gone chan struct{}

	inflight atomic.Int64
	lmu      sync.Mutex
	lat      latencyWindow

	draining atomic.Bool
	dead     atomic.Bool
	lane     *obs.Lane
	wg       sync.WaitGroup
}

// latencyWindow holds a backend's most recent response latencies
// (seconds) in a ring: admission and the hedge deadline ask how a member
// behaves now, not over its lifetime. Guarded by backend.lmu.
type latencyWindow struct {
	vals []float64
	n    int64 // observations ever added
}

func (w *latencyWindow) add(v float64) {
	if len(w.vals) < cap(w.vals) {
		w.vals = append(w.vals, v)
	} else {
		w.vals[w.n%int64(cap(w.vals))] = v
	}
	w.n++
}

// quantile is the nearest-rank q-quantile of the window, 0 when empty.
func (w *latencyWindow) quantile(q float64) float64 {
	sorted := append([]float64(nil), w.vals...)
	sort.Float64s(sorted)
	return obs.QuantileSorted(sorted, q)
}

// fwd is one unit of backend writer work: a spliced request or a cancel.
type fwd struct {
	bid    uint64
	call   *routerCall
	cancel bool
}

// routerCall is one client request in flight through the router.
type routerCall struct {
	rc       *rconn
	clientID uint64
	modelLen int
	reqBuf   []byte // request payload copy (model+dims+floats) for forwards and retries

	// state: 0 open, 1 answered/terminal. Every terminal transition CASes
	// so exactly one response reaches the client writer.
	state atomic.Int32

	respType FrameType
	respAux  uint16
	respBuf  []byte

	timer *time.Timer
	// attempt bookkeeping under Router.pmu: ids and backends of the
	// outstanding attempts, so a winner can cancel the loser.
	bids  [2]uint64
	bkds  [2]*backend
	natt  int
	model []byte // alias into reqBuf for re-dispatch
}

// attempt is one (call, backend) forward, keyed by its backend-side id.
type attempt struct {
	call *routerCall
	b    *backend
	sent time.Time
}

// rconn is one client-facing connection on the router.
type rconn struct {
	r        *Router
	conn     net.Conn
	wch      chan *routerCall
	inflight sync.WaitGroup
	lane     *obs.Lane
}

// NewRouter listens on addr and routes to backends (dialed immediately).
func NewRouter(addr string, backends []string, cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	r := &Router{
		cfg:       cfg,
		reg:       reg,
		routed:    reg.Counter("router.routed"),
		hedged:    reg.Counter("router.hedged"),
		hedgeWins: reg.Counter("router.hedge_wins"),
		shed:      reg.Counter("router.shed"),
		retries:   reg.Counter("router.retries"),
		perModel:  make(map[string]*modelCounters),
		pend:      make(map[uint64]*attempt),
		conns:     make(map[*rconn]struct{}),
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

// Metrics exposes the router's counter registry: the fleet-wide counters
// (routed, hedged, hedge_wins, shed, retries) plus the per-model shadows
// (router.routed.model.<name>, router.hedged.model.<name>,
// router.shed.model.<name>) for every model that has sent traffic.
func (r *Router) Metrics() *obs.Registry { return r.reg }

// modelCounters is one model's routing record: its share of the routed,
// hedged and shed fleet counters.
type modelCounters struct {
	routed *obs.Counter
	hedged *obs.Counter
	shed   *obs.Counter
}

// forModel returns (lazily creating) the named model's counters.
func (r *Router) forModel(model []byte) *modelCounters {
	r.pcmu.Lock()
	defer r.pcmu.Unlock()
	if mc, ok := r.perModel[string(model)]; ok {
		return mc
	}
	name := string(model)
	mc := &modelCounters{
		routed: r.reg.Counter("router.routed.model." + name),
		hedged: r.reg.Counter("router.hedged.model." + name),
		shed:   r.reg.Counter("router.shed.model." + name),
	}
	r.perModel[name] = mc
	return mc
}

// ModelCounts reports one model's routing outcomes — primaries routed,
// hedges fired, requests shed. Zeroes for a model that never sent traffic.
func (r *Router) ModelCounts(model string) (routed, hedged, shed int64) {
	r.pcmu.Lock()
	mc := r.perModel[model]
	r.pcmu.Unlock()
	if mc == nil {
		return 0, 0, 0
	}
	return mc.routed.Value(), mc.hedged.Value(), mc.shed.Value()
}

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
		wch:  make(chan fwd, 1024),
		gone: make(chan struct{}),
		lat:  latencyWindow{vals: make([]float64, 0, r.cfg.Window)},
		lane: r.cfg.Trace.Lane("router.b:" + addr),
	}
	r.bmu.Lock()
	r.backends = append(r.backends, b)
	r.bmu.Unlock()
	b.wg.Add(2)
	go r.backendWriter(b)
	go r.backendReader(b)
	return nil
}

// DrainBackend stops dispatching new requests to addr; in-flight requests
// complete normally. Reports whether the backend was found.
func (r *Router) DrainBackend(addr string) bool {
	r.bmu.Lock()
	defer r.bmu.Unlock()
	for _, b := range r.backends {
		if b.addr == addr && !b.dead.Load() {
			b.draining.Store(true)
			return true
		}
	}
	return false
}

// Backends lists the live (non-dead) backend addresses.
func (r *Router) Backends() []string {
	r.bmu.Lock()
	defer r.bmu.Unlock()
	out := make([]string, 0, len(r.backends))
	for _, b := range r.backends {
		if !b.dead.Load() {
			out = append(out, b.addr)
		}
	}
	return out
}

// awaitReaped waits up to timeout for every connection to addr to be
// reaped. A member's process can exit before its connection's reader sees
// the EOF, so Backends may list it briefly after it is gone.
func (r *Router) awaitReaped(addr string, timeout time.Duration) error {
	r.bmu.Lock()
	var gone []chan struct{}
	for _, b := range r.backends {
		if b.addr == addr {
			gone = append(gone, b.gone)
		}
	}
	r.bmu.Unlock()
	deadline := time.After(timeout)
	for _, g := range gone {
		select {
		case <-g:
		case <-deadline:
			return fmt.Errorf("netserve: backend %s still connected %v after it exited", addr, timeout)
		}
	}
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
			wch:  make(chan *routerCall, 1024),
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
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		c.writer()
	}()
	c.reader()
	c.inflight.Wait()
	close(c.wch)
	writerWG.Wait()
	c.conn.Close()
	c.r.mu.Lock()
	delete(c.r.conns, c)
	c.r.mu.Unlock()
}

// reader parses client frames and dispatches them. The Route phase span
// covers receive→forward-enqueue for each request: frame parse, backend
// pick, splice enqueue.
func (c *rconn) reader() {
	var (
		hdr    = make([]byte, headerLen)
		buf    []byte
		tracer = c.lane.Tracer()
	)
	for {
		h, payload, err := ReadFrame(c.conn, hdr, buf)
		buf = payload
		if err != nil {
			return
		}
		if h.Type != FrameRequest {
			continue // cancels/goaways from clients are tolerated, not routed
		}
		var t0 int64
		if tracer != nil {
			t0 = tracer.Now()
		}
		model, merr := RequestModel(h, payload)
		if merr != nil {
			continue // header lies about its own payload: drop the frame
		}
		call := &routerCall{
			rc:       c,
			clientID: h.ID,
			modelLen: len(model),
			reqBuf:   append([]byte(nil), payload...),
		}
		call.model = call.reqBuf[:len(model)]
		c.inflight.Add(1)
		c.r.dispatch(call, nil, false)
		if tracer != nil {
			c.lane.Record(obs.PhaseRoute, t0, tracer.Now())
		}
	}
}

// writer sends terminal frames (spliced responses, error frames) back to
// the client, coalescing whatever is queued into single writes.
func (c *rconn) writer() {
	var buf []byte
	dead := false
	flush := func() {
		if len(buf) > 0 && !dead {
			if _, err := c.conn.Write(buf); err != nil {
				dead = true
			}
		}
		buf = buf[:0]
	}
	encode := func(call *routerCall) {
		switch call.respType {
		case FrameError:
			buf = grow(buf, headerLen+len(call.respBuf))
			putHeader(buf[len(buf)-headerLen-len(call.respBuf):], FrameError, call.respAux, call.clientID, len(call.respBuf))
			copy(buf[len(buf)-len(call.respBuf):], call.respBuf)
		default:
			buf = AppendResponseRaw(buf, call.clientID, call.respBuf)
		}
		c.inflight.Done()
	}
	for call := range c.wch {
		encode(call)
	coalesce:
		for len(buf) < 256<<10 {
			select {
			case more, ok := <-c.wch:
				if !ok {
					break coalesce
				}
				encode(more)
			default:
				break coalesce
			}
		}
		flush()
	}
	flush()
}

// finish CASes the call terminal and enqueues its response; exactly one
// caller wins.
func (call *routerCall) finish(t FrameType, aux uint16, payload []byte) bool {
	if !call.state.CompareAndSwap(0, 1) {
		return false
	}
	call.respType, call.respAux = t, aux
	call.respBuf = append(call.respBuf[:0], payload...)
	call.rc.wch <- call
	return true
}

// dispatch forwards call to the best eligible backend, hedging and
// shedding per config. exclude removes one backend from consideration (a
// hedge's primary, a retry's corpse); hedge marks this attempt as the
// hedge so counters and cancellation bookkeeping see it.
func (r *Router) dispatch(call *routerCall, exclude *backend, hedge bool) {
	b := r.pick(call.model, exclude)
	if b == nil {
		if hedge {
			return // no second backend to hedge at; the primary stands
		}
		r.shed.Inc()
		r.forModel(call.model).shed.Inc()
		call.finish(FrameError, uint16(CodeShed), []byte("no eligible backend"))
		return
	}
	bid := r.nextBID.Add(1)
	at := &attempt{call: call, b: b, sent: time.Now()}
	r.pmu.Lock()
	if b.dead.Load() {
		// The backend died between pick and insert. pmu fences this
		// against reapBackend's stranded scan: either the entry lands
		// before the scan (reap re-dispatches it) or this check sees dead
		// and re-picks — never a silently stranded entry.
		r.pmu.Unlock()
		r.dispatch(call, b, hedge)
		return
	}
	if call.natt < len(call.bids) {
		call.bids[call.natt], call.bkds[call.natt] = bid, b
		call.natt++
	}
	r.pend[bid] = at
	b.inflight.Add(1)
	r.pmu.Unlock()
	if !hedge {
		r.routed.Inc()
		r.forModel(call.model).routed.Inc()
		if r.cfg.Hedge {
			t := time.AfterFunc(r.hedgeDelay(b), func() {
				if call.state.Load() != 0 {
					return
				}
				r.hedged.Inc()
				r.forModel(call.model).hedged.Inc()
				r.dispatch(call, b, true)
			})
			r.pmu.Lock()
			call.timer = t
			r.pmu.Unlock()
		}
	}
	select {
	case b.wch <- fwd{bid: bid, call: call}:
	case <-b.gone:
		// Died mid-send; reapBackend owns (or owned) the pend entry and
		// re-dispatches any open call.
	}
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
		if b == exclude || b.dead.Load() || b.draining.Load() || !r.admit(b) {
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

// admit is the admission-control predicate: a backend with a degraded
// sliding p99 stops taking new work.
func (r *Router) admit(b *backend) bool {
	if r.cfg.AdmitP99 <= 0 {
		return true
	}
	b.lmu.Lock()
	defer b.lmu.Unlock()
	if b.lat.n < 32 {
		return true // too few observations to condemn it
	}
	return b.lat.quantile(0.99) <= r.cfg.AdmitP99.Seconds()
}

// hedgeDelay is the adaptive hedge deadline: the backend's recent
// HedgeQuantile latency, floored at HedgeMin.
func (r *Router) hedgeDelay(b *backend) time.Duration {
	b.lmu.Lock()
	var q float64
	if b.lat.n >= 16 {
		q = b.lat.quantile(r.cfg.HedgeQuantile)
	}
	b.lmu.Unlock()
	d := time.Duration(q * float64(time.Second))
	if d < r.cfg.HedgeMin {
		d = r.cfg.HedgeMin
	}
	return d
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

// backendWriter splices queued requests (and cancels) onto the backend
// connection.
func (r *Router) backendWriter(b *backend) {
	defer b.wg.Done()
	var buf []byte
	dead := false
	flush := func() {
		if len(buf) > 0 && !dead {
			if _, err := b.conn.Write(buf); err != nil {
				dead = true
			}
		}
		buf = buf[:0]
	}
	encode := func(f fwd) {
		if f.cancel {
			buf = AppendControl(buf, FrameCancel, f.bid)
			return
		}
		buf = AppendRequestRaw(buf, f.bid, f.call.modelLen, f.call.reqBuf)
	}
	for {
		select {
		case f := <-b.wch:
			encode(f)
		coalesce:
			for len(buf) < 256<<10 {
				select {
				case more := <-b.wch:
					encode(more)
				default:
					break coalesce
				}
			}
			flush()
		case <-b.gone:
			return
		}
	}
}

// backendReader demultiplexes backend responses back to their calls: the
// NetWait span (forward→first-response) is what hedging exists to cut.
func (r *Router) backendReader(b *backend) {
	defer b.wg.Done()
	var (
		hdr    = make([]byte, headerLen)
		buf    []byte
		tracer = b.lane.Tracer()
	)
	for {
		h, payload, err := ReadFrame(b.conn, hdr, buf)
		buf = payload
		if err != nil {
			break
		}
		switch h.Type {
		case FrameResponse, FrameError:
			r.pmu.Lock()
			at, ok := r.pend[h.ID]
			if ok {
				delete(r.pend, h.ID)
			}
			r.pmu.Unlock()
			if !ok {
				continue // late loser of a hedge race, or a cancelled id
			}
			b.inflight.Add(-1)
			lat := time.Since(at.sent)
			if h.Type == FrameResponse {
				b.lmu.Lock()
				b.lat.add(lat.Seconds())
				b.lmu.Unlock()
			}
			if tracer != nil {
				b.lane.Record(obs.PhaseNetWait, tracer.At(at.sent), tracer.Now())
			}
			call := at.call
			if call.finish(h.Type, h.Aux, payload) {
				r.afterWin(call, h.ID)
			}
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
	r.reapBackend(b)
}

// afterWin settles the race once a call has its answer: stop the hedge
// timer, count a hedge win if the second attempt answered first, and
// cancel the losing attempt — remove its pend entry (late responses fall
// on the floor) and tell its backend to skip the response write. All
// attempt bookkeeping reads happen under pmu, where dispatch wrote them.
func (r *Router) afterWin(call *routerCall, winnerBID uint64) {
	r.pmu.Lock()
	timer := call.timer
	call.timer = nil
	win := call.natt > 1 && winnerBID == call.bids[1]
	var loserBID uint64
	var loser *backend
	for i := 0; i < call.natt; i++ {
		if call.bids[i] != winnerBID {
			if _, live := r.pend[call.bids[i]]; live {
				loserBID, loser = call.bids[i], call.bkds[i]
				delete(r.pend, call.bids[i])
			}
		}
	}
	r.pmu.Unlock()
	if timer != nil {
		timer.Stop()
	}
	if win {
		r.hedgeWins.Inc()
	}
	if loser == nil {
		return
	}
	loser.inflight.Add(-1)
	if !loser.dead.Load() {
		select {
		case loser.wch <- fwd{bid: loserBID, cancel: true}:
		default: // writer backlogged; the late response is dropped anyway
		}
	}
}

// reapBackend handles a dead backend connection: remove it from the
// dispatch set and re-dispatch every open attempt it stranded — the
// zero-drop guarantee across a member's death or restart.
func (r *Router) reapBackend(b *backend) {
	if !b.dead.CompareAndSwap(false, true) {
		return
	}
	b.conn.Close()
	close(b.gone)

	r.bmu.Lock()
	for i, x := range r.backends {
		if x == b {
			r.backends = append(r.backends[:i], r.backends[i+1:]...)
			break
		}
	}
	r.bmu.Unlock()

	r.pmu.Lock()
	var stranded []*attempt
	for bid, at := range r.pend {
		if at.b == b {
			delete(r.pend, bid)
			stranded = append(stranded, at)
		}
	}
	r.pmu.Unlock()
	for _, at := range stranded {
		b.inflight.Add(-1)
		if at.call.state.Load() != 0 {
			continue // already answered by the other attempt
		}
		r.retries.Inc()
		r.dispatch(at.call, b, false)
	}
}

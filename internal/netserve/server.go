package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"deep15pf/internal/obs"
	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

// ServerConfig parameterises a backend listener.
type ServerConfig struct {
	// Trace attaches frame-level phase spans to a tracer. nil records
	// nothing.
	Trace *obs.Tracer
	// WriterDepth is the per-connection response-queue depth; a worker
	// callback blocks once it fills (backpressure toward the batcher
	// rather than unbounded buffering). Default 256.
	WriterDepth int
}

// Server is the network face of one or more serve.Servers: a TCP listener
// whose every connection multiplexes many in-flight requests (pipelined
// ids, responses in completion order), decoding payloads straight into
// pooled batcher-input tensors and completing them through
// serve.SubmitAsync — no goroutine per request, no allocation per frame
// once warm.
type Server struct {
	ln     net.Listener
	cfg    ServerConfig
	delay  atomic.Int64 // nanoseconds; see SetDelay
	models map[string]*modelEntry

	mu       sync.Mutex
	conns    map[*srvConn]struct{}
	draining bool

	acceptWG sync.WaitGroup
	connWG   sync.WaitGroup
}

// modelEntry caches per-model dispatch state: the serving engine, its
// input geometry, and a pool of input tensors the wire decode fills.
type modelEntry struct {
	srv     *serve.Server
	inShape []int
	inLen   int
	pool    sync.Pool
}

// srvConn is one accepted connection: a reader goroutine that parses and
// submits, a writer goroutine that encodes and coalesces responses, and
// the id table cancel frames consult.
type srvConn struct {
	s    *Server
	conn net.Conn
	wch  chan *netReq

	// pend tracks requests submitted but not yet written back, so a
	// cancel frame can mark its target. Entries are removed when the
	// response (or its cancellation) is handled by the writer.
	pmu  sync.Mutex
	pend map[uint64]*netReq

	inflight sync.WaitGroup // one per submitted request, Done in writer
}

// netReq is one in-flight request's envelope, pooled: zero allocations
// per request once the connection is warm.
type netReq struct {
	c         *srvConn
	me        *modelEntry
	id        uint64
	x         *tensor.Tensor // pooled input, returned after batch copy
	y         *tensor.Tensor // response view, set by the completion callback
	errCode   ErrCode        // non-zero: write an error frame instead of y
	errMsg    string
	goaway    bool // sentinel: writer emits a goaway frame
	cancelled atomic.Bool
}

var netReqPool = sync.Pool{New: func() any { return new(netReq) }}

// NewServer listens on addr and serves every model in models over the
// D15R protocol. Callers own the serve.Servers: Drain the network tier
// first, then Close the engines.
func NewServer(addr string, models map[string]*serve.Server, cfg ServerConfig) (*Server, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("netserve: no models to serve")
	}
	if cfg.WriterDepth <= 0 {
		cfg.WriterDepth = 256
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:     ln,
		cfg:    cfg,
		models: make(map[string]*modelEntry, len(models)),
		conns:  make(map[*srvConn]struct{}),
	}
	for name, srv := range models {
		me := &modelEntry{srv: srv, inShape: srv.Model().InShape()}
		me.inLen = 1
		for _, d := range me.inShape {
			me.inLen *= d
		}
		shape := me.inShape
		me.pool.New = func() any { return tensor.New(shape...) }
		s.models[name] = me
	}
	s.acceptWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// SetDelay sleeps d in every later request's completion path — the
// slow-backend fault injection the hedging and admission tests use to
// degrade one fleet member, before or during a run. Zero (the default)
// in production.
func (s *Server) SetDelay(d time.Duration) { s.delay.Store(int64(d)) }

// Addr is the bound listen address ("host:port"), resolved even when the
// caller asked for port 0.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.acceptWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed: drain or shutdown
		}
		c := &srvConn{
			s:    s,
			conn: conn,
			wch:  make(chan *netReq, s.cfg.WriterDepth),
			pend: make(map[uint64]*netReq),
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go c.run()
	}
}

// run owns the connection lifecycle: reader inline, writer in a sibling
// goroutine, teardown once the reader is done and every submitted request
// has been answered.
func (c *srvConn) run() {
	defer c.s.connWG.Done()
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		c.writer()
	}()

	c.reader()

	// All submitted requests must pass through the writer before the
	// channel closes (their callbacks hold references into this conn).
	c.inflight.Wait()
	close(c.wch)
	writerWG.Wait()
	c.conn.Close()
	c.s.mu.Lock()
	delete(c.s.conns, c)
	c.s.mu.Unlock()
}

// reader parses frames and feeds the batcher. Any framing error poisons
// the stream (length-prefixed protocols cannot resynchronise), so the
// reader exits and teardown closes the connection.
func (c *srvConn) reader() {
	var (
		br  = bufio.NewReaderSize(c.conn, readBufSize)
		hdr = make([]byte, headerLen)
		buf []byte
		tw  TensorWire
		h   Header
		err error
	)
	for {
		h, buf, err = ReadFrame(br, hdr, buf)
		if err != nil {
			return // io.EOF on clean close; anything else poisons the stream
		}
		switch h.Type {
		case FrameRequest:
			c.handleRequest(h, buf, &tw)
		case FrameCancel:
			c.pmu.Lock()
			if nr, ok := c.pend[h.ID]; ok {
				nr.cancelled.Store(true)
			}
			c.pmu.Unlock()
		case FrameGoaway:
			// A client-initiated goaway: it will send nothing more; the
			// reader simply runs to EOF.
		default:
			// Responses/errors are meaningless inbound on a server; drop.
		}
	}
}

// handleRequest decodes one request frame into a pooled input tensor and
// submits it. Failures answer with an error frame on the same id rather
// than killing the connection — a bad request is the client's problem,
// a bad frame (handled in reader) is the stream's.
func (c *srvConn) handleRequest(h Header, payload []byte, tw *TensorWire) {
	model, err := DecodeRequest(h, payload, tw)
	if err != nil {
		c.reject(h.ID, CodeBadShape, err.Error())
		return
	}
	me, ok := c.s.models[string(model)] // no alloc: map lookup by []byte conversion
	if !ok {
		c.reject(h.ID, CodeUnknownModel, "model not served here")
		return
	}
	if tw.Elems != me.inLen || !sameDims(tw, me.inShape) {
		if n, ok := batchDims(tw, me.inShape); ok {
			c.handleBulk(h.ID, n, me, tw)
			return
		}
		c.reject(h.ID, CodeBadShape, "request shape does not match the model input")
		return
	}
	x := me.pool.Get().(*tensor.Tensor)
	if err := tw.DecodeInto(x.Data); err != nil {
		me.pool.Put(x)
		c.reject(h.ID, CodeBadShape, err.Error())
		return
	}
	nr := netReqPool.Get().(*netReq)
	nr.c, nr.me, nr.id, nr.x = c, me, h.ID, x
	nr.y, nr.errCode, nr.errMsg, nr.goaway = nil, 0, "", false
	nr.cancelled.Store(false)
	c.pmu.Lock()
	c.pend[h.ID] = nr
	c.pmu.Unlock()
	c.inflight.Add(1)
	if err := me.srv.SubmitAsync(x, onInfer, nr); err != nil {
		c.pmu.Lock()
		delete(c.pend, h.ID)
		c.pmu.Unlock()
		c.inflight.Done()
		me.pool.Put(x)
		code, msg := CodeInternal, err.Error()
		if errors.Is(err, serve.ErrClosed) {
			code, msg = CodeDraining, "backend draining"
		}
		nr.x = nil
		netReqPool.Put(nr)
		c.reject(h.ID, code, msg)
	}
}

// handleBulk is the throughput fast path: a [N, InShape...] request frame
// skips the dynamic batcher (no queue, no linger — the batch arrived
// pre-assembled) and runs straight through serve.InferBatch on a dedicated
// goroutine. One goroutine per in-flight *batch* — hundreds of samples —
// not per request, so the no-goroutine-per-request economics of the online
// path are preserved where they matter. The input tensor is sized by the
// request, so it is allocated fresh rather than drawn from the per-sample
// pool; at bulk batch sizes that is one allocation per several hundred
// samples.
func (c *srvConn) handleBulk(id uint64, n int, me *modelEntry, tw *TensorWire) {
	x := tensor.New(append([]int{n}, me.inShape...)...)
	if err := tw.DecodeInto(x.Data); err != nil {
		c.reject(id, CodeBadShape, err.Error())
		return
	}
	nr := netReqPool.Get().(*netReq)
	nr.c, nr.me, nr.id, nr.x = c, me, id, nil
	nr.y, nr.errCode, nr.errMsg, nr.goaway = nil, 0, "", false
	nr.cancelled.Store(false)
	c.pmu.Lock()
	c.pend[id] = nr
	c.pmu.Unlock()
	c.inflight.Add(1)
	go func() {
		y, err := me.srv.InferBatch(x)
		if err != nil {
			nr.errCode, nr.errMsg = CodeInternal, err.Error()
			if errors.Is(err, serve.ErrClosed) {
				nr.errCode, nr.errMsg = CodeDraining, "backend draining"
			}
		} else {
			nr.y = y
		}
		if d := time.Duration(c.s.delay.Load()); d > 0 {
			time.Sleep(d) // fault injection applies to bulk scoring too
		}
		c.wch <- nr
	}()
}

// batchDims reports whether tw is a batched request for a model with the
// given per-sample shape: one extra leading dimension n ∈ [1, MaxBulkBatch],
// trailing dimensions matching exactly.
func batchDims(tw *TensorWire, shape []int) (int, bool) {
	if tw.NDims != len(shape)+1 {
		return 0, false
	}
	n := tw.Dims[0]
	if n < 1 || n > serve.MaxBulkBatch {
		return 0, false
	}
	for i, d := range shape {
		if tw.Dims[i+1] != d {
			return 0, false
		}
	}
	elems := n
	for _, d := range shape {
		elems *= d
	}
	if tw.Elems != elems {
		return 0, false
	}
	return n, true
}

// onInfer is the single completion callback every request shares (a
// package function, so SubmitAsync never closes over per-request state).
// It runs on a batcher worker goroutine: recycle the input (the batch
// copy has happened), stash the response view, hand off to the writer.
func onInfer(y *tensor.Tensor, ctx any) {
	nr := ctx.(*netReq)
	nr.me.pool.Put(nr.x)
	nr.x = nil
	nr.y = y
	if d := time.Duration(nr.c.s.delay.Load()); d > 0 {
		time.Sleep(d) // fault injection: a slow backend stalls its worker
	}
	nr.c.wch <- nr
}

// reject enqueues an error frame for id.
func (c *srvConn) reject(id uint64, code ErrCode, msg string) {
	nr := netReqPool.Get().(*netReq)
	nr.c, nr.me, nr.id, nr.x, nr.y = c, nil, id, nil, nil
	nr.errCode, nr.errMsg, nr.goaway = code, msg, false
	nr.cancelled.Store(false)
	c.inflight.Add(1)
	c.wch <- nr
}

// writer drains the response queue, encoding into one reused buffer and
// coalescing everything immediately available into a single Write — the
// syscall amortisation that keeps a pipelined connection off the
// per-frame write cliff. The client and router write by group commit
// instead (frameWriter); a backend keeps this goroutine because its
// producers are batcher workers, which must never block in a socket write.
func (c *srvConn) writer() {
	var buf []byte
	dead := false
	flush := func() {
		if len(buf) > 0 && !dead {
			if _, err := c.conn.Write(buf); err != nil {
				dead = true // keep draining so callbacks never block
			}
		}
		buf = buf[:0]
	}
	for nr := range c.wch {
		buf = c.encode(buf, nr)
		// Coalesce: drain whatever is already queued before the syscall.
	coalesce:
		for len(buf) < 256<<10 {
			select {
			case more, ok := <-c.wch:
				if !ok {
					break coalesce
				}
				buf = c.encode(buf, more)
			default:
				break coalesce
			}
		}
		flush()
	}
	flush()
}

// encode appends nr's frame (response, error, or goaway) to buf and
// releases the envelope.
func (c *srvConn) encode(buf []byte, nr *netReq) []byte {
	switch {
	case nr.goaway:
		buf = AppendControl(buf, FrameGoaway, 0)
		return buf // sentinel is not pooled and not inflight-counted
	case nr.cancelled.Load():
		// Hedging's losing attempt: the requester withdrew; write nothing.
	case nr.errCode != 0:
		buf = AppendError(buf, nr.id, nr.errCode, nr.errMsg)
	default:
		buf = AppendResponse(buf, nr.id, nr.y.Shape, nr.y.Data)
	}
	c.pmu.Lock()
	delete(c.pend, nr.id)
	c.pmu.Unlock()
	c.inflight.Done()
	nr.c, nr.me, nr.x, nr.y, nr.errMsg = nil, nil, nil, nil, ""
	netReqPool.Put(nr)
	return buf
}

// Drain performs the graceful shutdown handshake: stop accepting
// connections, tell every live client "send nothing more" with a goaway
// frame, answer everything already in flight, and wait for clients to
// close (each does so once its last response lands). Connections that
// ignore the protocol are force-closed at timeout. The serve engines are
// untouched — callers Close them after Drain returns, so a request racing
// in before goaway still completes.
func (s *Server) Drain(timeout time.Duration) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.draining = true
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.ln.Close()
	s.acceptWG.Wait()
	for _, c := range conns {
		ga := &netReq{goaway: true}
		select {
		case c.wch <- ga:
		default:
			go func(c *srvConn, ga *netReq) {
				defer func() { recover() }() // writer channel may close under us
				c.wch <- ga
			}(c, ga)
		}
	}

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		for c := range s.conns {
			c.conn.Close() // force the reader out; teardown proceeds
		}
		s.mu.Unlock()
		<-done
	}
}

// Close tears the listener and every connection down immediately — the
// ungraceful sibling of Drain, for tests and error paths.
func (s *Server) Close() {
	s.ln.Close()
	s.acceptWG.Wait()
	s.mu.Lock()
	s.draining = true
	for c := range s.conns {
		c.conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
}

func sameDims(tw *TensorWire, shape []int) bool {
	if tw.NDims != len(shape) {
		return false
	}
	for i, d := range shape {
		if tw.Dims[i] != d {
			return false
		}
	}
	return true
}

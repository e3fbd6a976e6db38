package netserve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"deep15pf/internal/tensor"
)

// ErrDraining is returned by Infer once the peer has sent goaway: the
// connection answers what is in flight but accepts nothing new.
var ErrDraining = errors.New("netserve: connection draining (goaway received)")

// Client is one multiplexed connection to a backend or router: requests
// are pipelined under climbing ids from any number of goroutines and
// written by group commit (concurrent callers share a write), responses
// come back in completion order, and a single reader goroutine matches
// them up. The hot path reuses the write buffers, the read buffers, and
// pooled call envelopes — framing allocates nothing warm (InferInto also
// skips the response allocation by decoding into a caller tensor).
type Client struct {
	conn   net.Conn
	w      *frameWriter
	nextID atomic.Uint64

	cmu       sync.Mutex
	calls     map[uint64]*call
	readerErr error

	inflight atomic.Int64
	draining atomic.Bool

	readerDone chan struct{}
}

// call is one in-flight request's rendezvous point, pooled.
type call struct {
	done chan struct{} // buffered(1); reader signals completion
	y    *tensor.Tensor
	into bool
	err  error
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

// Dial connects to a D15R endpoint.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

func newClient(conn net.Conn) *Client {
	c := &Client{
		conn:       conn,
		w:          newFrameWriter(conn),
		calls:      make(map[uint64]*call),
		readerDone: make(chan struct{}),
	}
	go c.reader()
	return c
}

// Infer sends x to the named model and returns a freshly allocated
// response tensor.
func (c *Client) Infer(model string, x *tensor.Tensor) (*tensor.Tensor, error) {
	return c.do(model, x, nil, false)
}

// InferInto sends x and decodes the response into y, whose length must
// match the model output — the allocation-free client path.
func (c *Client) InferInto(model string, x, y *tensor.Tensor) error {
	_, err := c.do(model, x, y, true)
	return err
}

func (c *Client) do(model string, x, y *tensor.Tensor, into bool) (*tensor.Tensor, error) {
	if c.draining.Load() {
		return nil, ErrDraining
	}
	cl := callPool.Get().(*call)
	cl.y, cl.into, cl.err = y, into, nil
	id := c.nextID.Add(1)

	c.cmu.Lock()
	if err := c.readerErr; err != nil {
		c.cmu.Unlock()
		callPool.Put(cl)
		return nil, err
	}
	c.calls[id] = cl
	c.cmu.Unlock()
	c.inflight.Add(1)

	var err error
	c.w.queue(func(b []byte) []byte {
		b, err = AppendRequest(b, id, model, x.Shape, x.Data)
		return b
	})
	if err != nil {
		c.cmu.Lock()
		_, mine := c.calls[id]
		delete(c.calls, id)
		c.cmu.Unlock()
		if !mine {
			<-cl.done // reader claimed it first and will signal; drain before pooling
		}
		c.finish()
		cl.y, cl.err = nil, nil
		callPool.Put(cl)
		return nil, err
	}
	// A write error closes the connection, and the reader then fails this
	// call with the rest.
	c.w.flush()

	<-cl.done
	res, rerr := cl.y, cl.err
	cl.y, cl.err = nil, nil
	callPool.Put(cl)
	c.finish()
	return res, rerr
}

// finish decrements the in-flight count and completes the drain
// handshake: after goaway, the side that sees the count hit zero closes
// the connection.
func (c *Client) finish() {
	if c.inflight.Add(-1) == 0 && c.draining.Load() {
		c.conn.Close()
	}
}

// reader is the demux loop: match ids, decode responses, surface error
// frames, run the goaway handshake, and on exit fail everything still
// outstanding with the transport error (the write error, if the write side
// broke first).
func (c *Client) reader() {
	defer close(c.readerDone)
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
			break
		}
		switch h.Type {
		case FrameResponse, FrameError:
			c.cmu.Lock()
			cl := c.calls[h.ID]
			delete(c.calls, h.ID)
			c.cmu.Unlock()
			if cl == nil {
				continue // stale id (already failed); drop
			}
			if h.Type == FrameError {
				cl.err = &RemoteError{Code: ErrCode(h.Aux), Msg: string(buf)}
			} else if derr := DecodeResponse(buf, &tw); derr != nil {
				cl.err = derr
			} else if cl.into {
				if len(cl.y.Data) != tw.Elems {
					cl.err = fmt.Errorf("netserve: response carries %d values, destination holds %d", tw.Elems, len(cl.y.Data))
				} else {
					cl.err = tw.DecodeInto(cl.y.Data)
				}
			} else {
				cl.y = tensor.New(tw.Shape()...)
				cl.err = tw.DecodeInto(cl.y.Data)
			}
			cl.done <- struct{}{}
		case FrameGoaway:
			c.draining.Store(true)
			if c.inflight.Load() == 0 {
				c.conn.Close() // handshake complete: nothing in flight
			}
		default:
			// Requests are meaningless inbound on a client; drop.
		}
	}
	if werr := c.w.failed(); werr != nil {
		err = werr
	}
	if err == nil {
		err = errors.New("netserve: connection closed")
	}
	c.cmu.Lock()
	if c.readerErr == nil {
		c.readerErr = fmt.Errorf("netserve: connection lost: %w", err)
	}
	stranded := make([]*call, 0, len(c.calls))
	for id, cl := range c.calls {
		delete(c.calls, id)
		stranded = append(stranded, cl)
	}
	ferr := c.readerErr
	c.cmu.Unlock()
	for _, cl := range stranded {
		cl.err = ferr
		cl.done <- struct{}{}
	}
}

// Close tears the connection down; outstanding requests fail with a
// transport error.
func (c *Client) Close() {
	c.conn.Close()
	<-c.readerDone
}

// Bound adapts one (client, model) pair to serve.Submitter so the load
// generators drive a socket exactly like an in-process server.
type Bound struct {
	c     *Client
	model string
}

// Bind names the model Submit targets.
func (c *Client) Bind(model string) *Bound { return &Bound{c: c, model: model} }

// Submit implements serve.Submitter.
func (b *Bound) Submit(x *tensor.Tensor) (*tensor.Tensor, error) {
	return b.c.Infer(b.model, x)
}

package netserve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"deep15pf/internal/tensor"
)

// frameStream is one of every frame kind back to back, a bulk-size request
// (larger than a connection's read buffer) among them.
func frameStream(t *testing.T) []byte {
	t.Helper()
	buf, err := AppendRequest(nil, 1, "hep-small", []int{3, 2, 2}, make([]float32, 12))
	if err != nil {
		t.Fatal(err)
	}
	bulk := make([]float32, 64*3*16*16)
	for i := range bulk {
		bulk[i] = float32(i) * 0.5
	}
	if buf, err = AppendRequest(buf, 2, "hep-small", []int{64, 3, 16, 16}, bulk); err != nil {
		t.Fatal(err)
	}
	buf = AppendResponse(buf, 3, []int{2}, []float32{0.25, -4})
	buf = AppendError(buf, 4, CodeShed, "no eligible backend")
	buf = AppendControl(buf, FrameCancel, 5)
	return AppendControl(buf, FrameGoaway, 0)
}

type frameCopy struct {
	h       Header
	payload []byte
}

// readAll reads frames from r until it fails, copying each payload out.
func readAll(r io.Reader) ([]frameCopy, error) {
	hdr := make([]byte, headerLen)
	var buf []byte
	var out []frameCopy
	for {
		h, p, err := ReadFrame(r, hdr, buf)
		if err != nil {
			return out, err
		}
		buf = p
		out = append(out, frameCopy{h, append([]byte(nil), p...)})
	}
}

// TestReadFrameThroughShortReads: frames read through readers that return
// one byte, half a request, or a buffer smaller than the frame come out
// byte-identical to a plain in-memory read, and the stream ends on a clean
// io.EOF each time.
func TestReadFrameThroughShortReads(t *testing.T) {
	stream := frameStream(t)
	want, err := readAll(bytes.NewReader(stream))
	if err != io.EOF || len(want) != 6 {
		t.Fatalf("reference read: %d frames, %v", len(want), err)
	}
	readers := map[string]io.Reader{
		"one byte":     iotest.OneByteReader(bytes.NewReader(stream)),
		"half":         iotest.HalfReader(bytes.NewReader(stream)),
		"small bufio":  bufio.NewReaderSize(bytes.NewReader(stream), 16),
		"conn's bufio": bufio.NewReaderSize(iotest.HalfReader(bytes.NewReader(stream)), readBufSize),
	}
	for name, r := range readers {
		got, err := readAll(r)
		if err != io.EOF {
			t.Fatalf("%s: stream ended with %v, want io.EOF", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d frames, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].h != want[i].h || !bytes.Equal(got[i].payload, want[i].payload) {
				t.Fatalf("%s: frame %d differs: %+v vs %+v", name, i, got[i].h, want[i].h)
			}
		}
	}
}

// TestFrameBuffered: a reader may skip its flush only when the whole next
// frame is already in memory.
func TestFrameBuffered(t *testing.T) {
	stream := frameStream(t)
	br := bufio.NewReaderSize(bytes.NewReader(stream), readBufSize)
	if frameBuffered(br) {
		t.Fatal("empty buffer reported a whole frame")
	}
	hdr := make([]byte, headerLen)
	if _, _, err := ReadFrame(br, hdr, nil); err != nil {
		t.Fatal(err)
	}
	if frameBuffered(br) {
		t.Fatal("a frame larger than the buffer reported as buffered")
	}
	if _, _, err := ReadFrame(br, hdr, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(br, hdr, nil); err != nil {
		t.Fatal(err)
	}
	if !frameBuffered(br) {
		t.Fatal("the error frame the last read brought in was not seen")
	}
}

// TestFrameWriterGroupCommitOrder: many producers queueing and flushing
// concurrently through one writer deliver every frame whole, and each
// producer's frames in the order it queued them.
func TestFrameWriterGroupCommitOrder(t *testing.T) {
	const producers, frames = 8, 300
	src, dst := net.Pipe()
	w := newFrameWriter(src)
	type result struct {
		got []frameCopy
		err error
	}
	done := make(chan result, 1)
	go func() {
		got, err := readAll(dst)
		done <- result{got, err}
	}()
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := 0; seq < frames; seq++ {
				msg := bytes.Repeat([]byte{byte(p)}, seq%40)
				w.queue(true, func(b []byte) []byte {
					return AppendError(b, uint64(p)<<32|uint64(seq), CodeInternal, string(msg))
				})
				w.flush()
			}
		}(p)
	}
	wg.Wait()
	w.flush()
	src.Close()
	res := <-done
	if res.err == nil || len(res.got) != producers*frames {
		t.Fatalf("read %d of %d frames, then %v", len(res.got), producers*frames, res.err)
	}
	next := make([]int, producers)
	for _, f := range res.got {
		p, seq := int(f.h.ID>>32), int(uint32(f.h.ID))
		if p >= producers || seq != next[p] {
			t.Fatalf("producer %d frame %d arrived, want its frame %d next", p, seq, next[p])
		}
		if !bytes.Equal(f.payload, bytes.Repeat([]byte{byte(p)}, seq%40)) {
			t.Fatalf("producer %d frame %d payload mangled", p, seq)
		}
		next[p]++
	}
}

var errInjected = errors.New("injected write failure")

// stuckConn is a connection whose writes block until release closes and
// then fail. written is how many bytes the stuck write was handed.
type stuckConn struct {
	net.Conn
	release chan struct{}
	written atomic.Int64
}

func (c *stuckConn) Write(p []byte) (int, error) {
	c.written.Add(int64(len(p)))
	<-c.release
	return 0, errInjected
}

// TestClientWriteErrorFailsQueuedCalls: when a group-commit write fails,
// every call queued behind it — written by that flush or waiting for the
// next — fails with the write error instead of hanging, and so does every
// later call.
func TestClientWriteErrorFailsQueuedCalls(t *testing.T) {
	x := tensor.New(3, 8, 8)
	end, peer := net.Pipe()
	defer peer.Close()
	conn := &stuckConn{Conn: end, release: make(chan struct{})}
	c := newClient(conn)
	defer c.Close()

	const n = 16
	frameLen := len(mustRequest(t, "tiny", x))
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.Infer("tiny", x)
			errs <- err
		}()
	}
	// One caller is inside the stuck write; the rest queue behind it.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		c.w.mu.Lock()
		queued := (int(conn.written.Load()) + len(c.w.buf)) / frameLen
		c.w.mu.Unlock()
		if queued == n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d calls reached the writer", queued, n)
		}
	}
	close(conn.release)
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errInjected) {
				t.Fatalf("queued call returned %v, want the write error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d queued calls still hang after the write failed", n-i, n)
		}
	}
	if _, err := c.Infer("tiny", x); !errors.Is(err, errInjected) {
		t.Fatalf("call after the failure returned %v, want the write error", err)
	}
}

func mustRequest(t *testing.T, model string, x *tensor.Tensor) []byte {
	t.Helper()
	buf, err := AppendRequest(nil, 1, model, x.Shape, x.Data)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRouterReaderExitFlushesForwards: a client that pipelines requests
// and then half-closes, or poisons its stream, makes the router's reader
// exit with forwards still queued. They must still reach a backend, and
// their answers must reach the client before the router closes the
// connection; then Router.Close returns and the fleet has served every one.
func TestRouterReaderExitFlushesForwards(t *testing.T) {
	const k = 8
	garbage := make([]byte, headerLen)
	binary.LittleEndian.PutUint32(garbage, 0xdeadbeef)
	for name, tail := range map[string][]byte{"half-close": nil, "corrupt frame": garbage} {
		t.Run(name, func(t *testing.T) {
			r, nss, engines, inputs := startFleet(t, []time.Duration{0, 0}, RouterConfig{})
			conn, err := net.Dial("tcp", r.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var stream []byte
			for i := 0; i < k; i++ {
				if stream, err = AppendRequest(stream, uint64(i+1), "tiny", inputs[i].X.Shape, inputs[i].X.Data); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := conn.Write(append(stream, tail...)); err != nil {
				t.Fatal(err)
			}
			if tail == nil {
				conn.(*net.TCPConn).CloseWrite()
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			answered := map[uint64]bool{}
			hdr := make([]byte, headerLen)
			for len(answered) < k {
				h, _, err := ReadFrame(conn, hdr, nil)
				if err != nil {
					t.Fatalf("the client got %d of %d answers, then %v", len(answered), k, err)
				}
				if h.Type != FrameResponse || h.ID < 1 || h.ID > k || answered[h.ID] {
					t.Fatalf("unexpected answer: %+v", h)
				}
				answered[h.ID] = true
			}
			closed := make(chan struct{})
			go func() {
				defer close(closed)
				r.Close()
			}()
			select {
			case <-closed:
			case <-time.After(20 * time.Second):
				for _, ns := range nss {
					ns.Close() // the router sheds what it stranded, and Close returns
				}
				<-closed
				t.Fatal("Router.Close hung on a connection whose reader exited with queued forwards")
			}
			if got := engines[0].Stats().Requests + engines[1].Stats().Requests; got != k {
				t.Fatalf("backends served %d of the %d pipelined requests", got, k)
			}
		})
	}
}

// TestFrameWriterFlushWaitOutwaitsAWrite: while another goroutine is
// writing, flush returns at once but flushWait returns only when that
// write and everything queued behind it are on the wire, which is what a
// connection's teardown needs before it closes the socket.
func TestFrameWriterFlushWaitOutwaitsAWrite(t *testing.T) {
	src, dst := net.Pipe() // a write blocks until the other end reads it
	defer dst.Close()
	w := newFrameWriter(src)
	frame := func(id uint64) func([]byte) []byte {
		return func(b []byte) []byte { return AppendControl(b, FrameCancel, id) }
	}
	w.queue(true, frame(1))
	go w.flush()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		busy := w.busy
		w.mu.Unlock()
		if busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the first flush never started writing")
		}
	}
	w.queue(true, frame(2))
	w.flush()
	waited := make(chan struct{})
	go func() {
		w.flushWait()
		close(waited)
	}()
	select {
	case <-waited:
		t.Fatal("flushWait returned while another flush was still writing")
	case <-time.After(20 * time.Millisecond):
	}
	got := make(chan []frameCopy, 1)
	go func() {
		frames, _ := readAll(dst)
		got <- frames
	}()
	<-waited
	src.Close()
	if frames := <-got; len(frames) != 2 || frames[0].h.ID != 1 || frames[1].h.ID != 2 {
		t.Fatalf("on the wire before the close: %+v, want frames 1 and 2", frames)
	}
}

// TestRouterQueueBoundedByStalledBackend: a member that stops reading
// slows the router's clients instead of growing the router's queue. Two
// connections pipeline far more than maxQueued bytes at one stalled
// backend; its writer never holds more than maxQueued bytes plus one frame,
// and a best-effort frame (a hedge cancel) offered to the full queue is
// dropped at once instead of waiting.
func TestRouterQueueBoundedByStalledBackend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.(*net.TCPConn).SetReadBuffer(4 << 10)
			accepted <- c
		}
	}()
	r, err := NewRouter("127.0.0.1:0", []string{ln.Addr().String()}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stalled := <-accepted
	b := r.backends[0]
	b.conn.(*net.TCPConn).SetWriteBuffer(4 << 10)

	x := tensor.New(16 << 10) // a 64 KiB payload
	frame := mustRequest(t, "tiny", x)
	var clients sync.WaitGroup
	conns := make([]net.Conn, 2)
	for i := range conns {
		if conns[i], err = net.Dial("tcp", r.Addr()); err != nil {
			t.Fatal(err)
		}
		clients.Add(1)
		go func(c net.Conn) {
			defer clients.Done()
			for j := 0; j < 64; j++ { // 4 MiB per connection
				if _, err := c.Write(frame); err != nil {
					return
				}
			}
		}(conns[i])
	}
	queued := func() int {
		b.w.mu.Lock()
		defer b.w.mu.Unlock()
		return len(b.w.buf)
	}
	most, full := 0, time.Time{}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		n := queued()
		most = max(most, n)
		if n >= maxQueued && full.IsZero() {
			full = time.Now()
		}
		if !full.IsZero() && time.Since(full) > 300*time.Millisecond {
			break
		}
	}
	if full.IsZero() {
		t.Fatalf("the stalled backend's queue peaked at %d bytes and never filled to %d", most, maxQueued)
	}
	if most >= maxQueued+len(frame) {
		t.Fatalf("%d bytes queued for a stalled backend, bound is %d plus one %d-byte frame", most, maxQueued, len(frame))
	}
	if b.w.queue(false, func(buf []byte) []byte { return AppendControl(buf, FrameCancel, 1) }) {
		t.Fatal("a best-effort frame was queued past the bound")
	}

	stalled.Close() // the member dies: the blocked write fails and the router sheds the rest
	for _, c := range conns {
		c.Close()
	}
	clients.Wait()
	r.Close()
}

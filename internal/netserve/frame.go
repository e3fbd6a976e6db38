// Package netserve puts the serving engine on the network: a compact
// binary wire protocol over TCP, a backend listener that multiplexes many
// in-flight requests per connection into internal/serve's dynamic batcher,
// and a router tier (consistent-hash dispatch, re-dispatch when a member
// dies, drain on goaway) that turns N backend processes into one fleet.
//
// The protocol is deliberately in the D15W/shard family: little-endian,
// magic-prefixed, length-prefixed frames, hardened decode (bad magic, bad
// version, truncated or overflowing lengths are explicit errors at the
// frame boundary — never a panic or a silent short read deep in a
// connection goroutine). One frame is:
//
//	magic   uint32  'D15R' on the wire
//	version uint8   1
//	type    uint8   request | response | error | goaway | (5, retired)
//	aux     uint16  model-name length (requests) / error code (errors)
//	id      uint64  request id, chosen by the sender, echoed in replies
//	n       uint32  payload bytes that follow (bounds-checked)
//	payload n bytes
//
// Request payload:  model name (aux bytes), ndims uint8, ndims×uint32
// dims, then the row-major float32 tensor. Response payload: ndims, dims,
// floats. Error payload: UTF-8 message. Goaway carries none.
//
// Request ids make the connection a pipe, not a lockstep RPC: a client
// writes requests as fast as it likes, responses come back in completion
// order (the batcher reorders), and the id matches them up. Goaway is the
// drain handshake (see Server.Drain).
//
// Hot-path contract: encode appends into caller-reused buffers and decode
// reads into caller-owned scratch and tensors, so a warm connection's
// framing allocates nothing in either direction — gated by AllocsPerRun
// like every other hot path in this repository.
package netserve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
)

const (
	// frameMagic reads as "D15R" on the wire (little-endian encode of
	// these bytes: 0x44 0x31 0x35 0x52).
	frameMagic   = 0x52353144
	frameVersion = 1
	// headerLen is the fixed frame prelude size.
	headerLen = 20
	// MaxPayload bounds one frame's payload: large enough for any tensor
	// this repository serves, small enough that a corrupt length cannot
	// drive allocation (64 MiB).
	MaxPayload = 64 << 20
	// MaxDims bounds a tensor's rank on the wire.
	MaxDims = 8
	// MaxModelName bounds the model-name field of a request.
	MaxModelName = 255
)

// FrameType discriminates the frame kinds.
type FrameType uint8

const (
	FrameRequest FrameType = 1 + iota
	FrameResponse
	FrameError
	// FrameGoaway tells the peer the sender is draining: send no new
	// requests on this connection; in-flight ones will complete; close
	// the connection when the last response lands.
	FrameGoaway
	// frameCancelRetired is type 5, the cancel a hedging router once sent
	// for its losing attempt. It still parses, so an older peer's frame is
	// read whole, and every reader drops it: the request it names is
	// answered as usual.
	frameCancelRetired
	frameTypeEnd
)

// ErrCode classifies error frames (the aux field).
type ErrCode uint16

const (
	CodeUnknownModel ErrCode = 1 + iota
	CodeBadShape
	// CodeShed is the router's refusal when no live backend is left to
	// take the request.
	CodeShed
	// CodeDraining refuses a request that arrived on a draining
	// connection after goaway.
	CodeDraining
	CodeInternal
)

func (c ErrCode) String() string {
	switch c {
	case CodeUnknownModel:
		return "unknown model"
	case CodeBadShape:
		return "bad shape"
	case CodeShed:
		return "shedding load"
	case CodeDraining:
		return "draining"
	case CodeInternal:
		return "internal"
	}
	return fmt.Sprintf("code(%d)", uint16(c))
}

// RemoteError is a typed error frame surfaced to callers.
type RemoteError struct {
	Code ErrCode
	Msg  string
}

func (e *RemoteError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("netserve: remote error: %s", e.Code)
	}
	return fmt.Sprintf("netserve: remote error: %s: %s", e.Code, e.Msg)
}

// Header is a decoded frame prelude.
type Header struct {
	Type FrameType
	Aux  uint16
	ID   uint64
	N    int // payload bytes
}

// putHeader writes the 20-byte prelude into dst.
func putHeader(dst []byte, t FrameType, aux uint16, id uint64, n int) {
	binary.LittleEndian.PutUint32(dst[0:], frameMagic)
	dst[4] = frameVersion
	dst[5] = byte(t)
	binary.LittleEndian.PutUint16(dst[6:], aux)
	binary.LittleEndian.PutUint64(dst[8:], id)
	binary.LittleEndian.PutUint32(dst[16:], uint32(n))
}

// ParseHeader validates a 20-byte prelude. Every corruption mode is an
// explicit, distinguishable error: the connection handler closes the conn
// rather than resynchronise a stream it can no longer trust.
func ParseHeader(hdr []byte) (Header, error) {
	if len(hdr) < headerLen {
		return Header{}, fmt.Errorf("netserve: short frame header: %d bytes", len(hdr))
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != frameMagic {
		return Header{}, fmt.Errorf("netserve: not a D15R frame (bad magic %#08x)", m)
	}
	if v := hdr[4]; v != frameVersion {
		return Header{}, fmt.Errorf("netserve: unsupported frame version %d", v)
	}
	t := FrameType(hdr[5])
	if t == 0 || t >= frameTypeEnd {
		return Header{}, fmt.Errorf("netserve: unknown frame type %d", t)
	}
	n := binary.LittleEndian.Uint32(hdr[16:])
	if n > MaxPayload {
		return Header{}, fmt.Errorf("netserve: frame payload %d exceeds the %d-byte bound", n, MaxPayload)
	}
	return Header{
		Type: t,
		Aux:  binary.LittleEndian.Uint16(hdr[6:]),
		ID:   binary.LittleEndian.Uint64(hdr[8:]),
		N:    int(n),
	}, nil
}

// ReadFrame reads one complete frame from r. hdr is caller-owned
// headerLen-byte scratch; buf is the caller's reusable payload buffer,
// grown only when a frame outsizes it — the returned slice aliases it (or
// its replacement), valid until the next call. A clean EOF before any
// header byte returns io.EOF; truncation inside a frame is an explicit
// error.
func ReadFrame(r io.Reader, hdr, buf []byte) (Header, []byte, error) {
	if _, err := io.ReadFull(r, hdr[:headerLen]); err != nil {
		if err == io.EOF {
			return Header{}, buf, io.EOF
		}
		return Header{}, buf, fmt.Errorf("netserve: short frame header: %w", err)
	}
	h, err := ParseHeader(hdr[:headerLen])
	if err != nil {
		return Header{}, buf, err
	}
	if h.N > cap(buf) {
		buf = make([]byte, h.N)
	}
	buf = buf[:h.N]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Header{}, buf, fmt.Errorf("netserve: frame %d truncated at %d payload bytes: %w", h.ID, h.N, err)
	}
	return h, buf, nil
}

// readBufSize is every connection reader's buffer: one read syscall brings
// in all the frames the peer has sent so far, up to this many bytes, and
// ReadFrame parses them from memory. A frame larger than the buffer is read
// straight through it.
const readBufSize = 8 << 10

// frameBuffered reports whether br already holds the whole next frame, so
// reading it cannot block.
func frameBuffered(br *bufio.Reader) bool {
	n := br.Buffered()
	if n < headerLen {
		return false
	}
	hdr, _ := br.Peek(headerLen)
	return n >= headerLen+int(binary.LittleEndian.Uint32(hdr[16:]))
}

// frameWriter is a connection's group-commit writer. Producers queue
// encoded frames and then call flush. A flush that finds another flush
// writing returns at once: that writer takes the new frames on its next
// pass. So concurrent producers share one write syscall instead of paying
// one each, and no goroutine hand-off sits between a producer and the
// socket. The queue is bounded: while a write is in progress and
// maxQueued bytes already wait, a producer blocks, so a peer that stops
// reading slows the producers instead of growing the queue. A write error
// is final: the writer drops what is queued, now and later, and closes the
// connection so that its reader runs the connection's failure path.
type frameWriter struct {
	conn  net.Conn
	mu    sync.Mutex
	taken sync.Cond // broadcast when a write takes the queue or a flush ends; L is &mu
	buf   []byte    // frames queued since the last write began
	spare []byte    // the previous write's buffer, reused
	busy  bool      // a flush is writing
	err   error     // the write error that killed the writer
}

// maxQueued bounds the bytes a writer queues behind a write in progress,
// and the bytes one flush writes before it hands the rest on.
const maxQueued = 256 << 10

func newFrameWriter(conn net.Conn) *frameWriter {
	w := &frameWriter{conn: conn}
	w.taken.L = &w.mu
	return w
}

// queue appends one frame with app. When a write is in progress and
// maxQueued bytes already wait, it blocks until that write takes them. A
// dead writer queues nothing.
func (w *frameWriter) queue(app func([]byte) []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.busy && len(w.buf) >= maxQueued && w.err == nil {
		w.taken.Wait()
	}
	if w.err == nil {
		w.buf = app(w.buf)
	}
}

// flush writes everything queued, looping until nothing is, unless another
// flush is already doing so. After maxQueued bytes it hands what others
// keep queueing to a new goroutine, so a caller with work of its own is not
// kept writing for everyone.
func (w *frameWriter) flush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.busy {
		w.write()
	}
}

// flushWait is flush for a caller that needs the queue on the wire: it
// waits out any write in progress and writes until nothing is queued.
func (w *frameWriter) flushWait() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.busy || len(w.buf) > 0 && w.err == nil {
		if w.busy {
			w.taken.Wait()
		} else {
			w.write()
		}
	}
}

// write runs one flush with mu held and busy clear.
func (w *frameWriter) write() {
	w.busy = true
	for n := 0; len(w.buf) > 0 && w.err == nil; {
		if n >= maxQueued {
			go w.flush()
			break
		}
		out := w.buf
		w.buf = w.spare[:0]
		w.taken.Broadcast()
		w.mu.Unlock()
		_, err := w.conn.Write(out)
		w.mu.Lock()
		n += len(out)
		w.spare = out
		if err != nil {
			w.err = err
			w.conn.Close()
		}
	}
	if w.err != nil {
		w.buf = w.buf[:0]
	}
	w.busy = false
	w.taken.Broadcast()
}

// failed returns the write error that killed the writer, nil while it
// lives.
func (w *frameWriter) failed() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// touched collects the writers a reader goroutine has queued frames on
// since it last flushed. The router's readers flush them only before a read
// that could block, so every frame one read brought in leaves in one write
// per peer.
type touched []*frameWriter

func (t *touched) add(w *frameWriter) {
	for _, x := range *t {
		if x == w {
			return
		}
	}
	*t = append(*t, w)
}

func (t *touched) flush() {
	for _, w := range *t {
		w.flush()
	}
	*t = (*t)[:0]
}

// ---- encoders (append-style; reuse the destination buffer to stay 0-alloc) ----

// AppendRequest appends one request frame: model name, shape, and the
// float payload encoded little-endian.
func AppendRequest(dst []byte, id uint64, model string, shape []int, data []float32) ([]byte, error) {
	if len(model) == 0 || len(model) > MaxModelName {
		return dst, fmt.Errorf("netserve: model name %q out of bounds (1..%d bytes)", model, MaxModelName)
	}
	if len(shape) == 0 || len(shape) > MaxDims {
		return dst, fmt.Errorf("netserve: tensor rank %d out of bounds (1..%d)", len(shape), MaxDims)
	}
	n := len(model) + 1 + 4*len(shape) + 4*len(data)
	if n > MaxPayload {
		return dst, fmt.Errorf("netserve: request payload %d exceeds the %d-byte bound", n, MaxPayload)
	}
	dst = grow(dst, headerLen+n)
	putHeader(dst[len(dst)-headerLen-n:], FrameRequest, uint16(len(model)), id, n)
	p := dst[len(dst)-n:]
	copy(p, model)
	p = p[len(model):]
	p[0] = byte(len(shape))
	p = p[1:]
	for _, d := range shape {
		binary.LittleEndian.PutUint32(p, uint32(d))
		p = p[4:]
	}
	encodeF32(p, data)
	return dst, nil
}

// AppendRequestRaw appends a request frame whose payload is already
// encoded (model+dims+floats) — the router's splice path: it forwards the
// bytes it received, rewriting only the request id, without ever
// materialising a tensor.
func AppendRequestRaw(dst []byte, id uint64, modelLen int, payload []byte) []byte {
	dst = grow(dst, headerLen+len(payload))
	putHeader(dst[len(dst)-headerLen-len(payload):], FrameRequest, uint16(modelLen), id, len(payload))
	copy(dst[len(dst)-len(payload):], payload)
	return dst
}

// AppendResponse appends one response frame (shape + floats).
func AppendResponse(dst []byte, id uint64, shape []int, data []float32) []byte {
	n := 1 + 4*len(shape) + 4*len(data)
	dst = grow(dst, headerLen+n)
	putHeader(dst[len(dst)-headerLen-n:], FrameResponse, 0, id, n)
	p := dst[len(dst)-n:]
	p[0] = byte(len(shape))
	p = p[1:]
	for _, d := range shape {
		binary.LittleEndian.PutUint32(p, uint32(d))
		p = p[4:]
	}
	encodeF32(p, data)
	return dst
}

// AppendResponseRaw appends a response frame from an already-encoded
// payload (the router's return splice).
func AppendResponseRaw(dst []byte, id uint64, payload []byte) []byte {
	dst = grow(dst, headerLen+len(payload))
	putHeader(dst[len(dst)-headerLen-len(payload):], FrameResponse, 0, id, len(payload))
	copy(dst[len(dst)-len(payload):], payload)
	return dst
}

// AppendError appends an error frame.
func AppendError(dst []byte, id uint64, code ErrCode, msg string) []byte {
	if len(msg) > 1024 {
		msg = msg[:1024]
	}
	dst = grow(dst, headerLen+len(msg))
	putHeader(dst[len(dst)-headerLen-len(msg):], FrameError, uint16(code), id, len(msg))
	copy(dst[len(dst)-len(msg):], msg)
	return dst
}

// AppendControl appends a payload-free frame (goaway).
func AppendControl(dst []byte, t FrameType, id uint64) []byte {
	dst = grow(dst, headerLen)
	putHeader(dst[len(dst)-headerLen:], t, 0, id, 0)
	return dst
}

// grow extends dst by n bytes, reallocating only when capacity runs out.
func grow(dst []byte, n int) []byte {
	if len(dst)+n <= cap(dst) {
		return dst[:len(dst)+n]
	}
	out := make([]byte, len(dst)+n, 2*(len(dst)+n))
	copy(out, dst)
	return out
}

// ---- decoders ----

// TensorWire is a decoded-but-not-copied tensor region of a frame: dims
// plus a view of the raw float bytes. DecodeInto materialises the floats
// into a caller-owned destination (the batcher-owned input tensor, on the
// server's hot path).
type TensorWire struct {
	Dims  [MaxDims]int
	NDims int
	Elems int
	Raw   []byte // 4·Elems bytes, aliases the frame buffer
}

// Shape returns the dims as a slice view (valid until the TensorWire is
// reused).
func (tw *TensorWire) Shape() []int { return tw.Dims[:tw.NDims] }

// DecodeInto decodes the float payload into dst, which must hold exactly
// Elems values.
func (tw *TensorWire) DecodeInto(dst []float32) error {
	if len(dst) != tw.Elems {
		return fmt.Errorf("netserve: destination holds %d values, frame carries %d", len(dst), tw.Elems)
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(tw.Raw[4*i:]))
	}
	return nil
}

// decodeDims parses the rank byte and dims, overflow-checking the element
// product against what the remaining payload can actually carry — a
// corrupt header cannot promise ~2^64 elements (same posture as
// data.OpenShard's impossible-count check).
func decodeDims(p []byte, tw *TensorWire) ([]byte, error) {
	if len(p) < 1 {
		return nil, fmt.Errorf("netserve: frame truncated before tensor rank")
	}
	nd := int(p[0])
	if nd == 0 || nd > MaxDims {
		return nil, fmt.Errorf("netserve: tensor rank %d out of bounds (1..%d)", nd, MaxDims)
	}
	p = p[1:]
	if len(p) < 4*nd {
		return nil, fmt.Errorf("netserve: frame truncated inside %d dims", nd)
	}
	elems := 1
	for i := 0; i < nd; i++ {
		d := int(binary.LittleEndian.Uint32(p[4*i:]))
		if d <= 0 || d > MaxPayload/4 {
			return nil, fmt.Errorf("netserve: impossible dim %d", d)
		}
		if elems > MaxPayload/4/d {
			return nil, fmt.Errorf("netserve: impossible shape (element product overflows the payload bound)")
		}
		elems *= d
		tw.Dims[i] = d
	}
	tw.NDims, tw.Elems = nd, elems
	p = p[4*nd:]
	if len(p) != 4*elems {
		return nil, fmt.Errorf("netserve: payload carries %d bytes, shape promises %d (truncated or corrupt)", len(p), 4*elems)
	}
	tw.Raw = p
	return p, nil
}

// DecodeRequest splits a request frame's payload into the model name and
// the tensor region. The returned model aliases payload.
func DecodeRequest(h Header, payload []byte, tw *TensorWire) (model []byte, err error) {
	ml := int(h.Aux)
	if ml == 0 || ml > MaxModelName {
		return nil, fmt.Errorf("netserve: model-name length %d out of bounds (1..%d)", ml, MaxModelName)
	}
	if len(payload) < ml {
		return nil, fmt.Errorf("netserve: frame truncated inside the %d-byte model name", ml)
	}
	model = payload[:ml]
	if _, err := decodeDims(payload[ml:], tw); err != nil {
		return nil, err
	}
	return model, nil
}

// DecodeResponse parses a response frame's payload into the tensor region.
func DecodeResponse(payload []byte, tw *TensorWire) error {
	_, err := decodeDims(payload, tw)
	return err
}

// RequestModel peeks a request payload's model name without touching the
// tensor region — the router's dispatch path reads only this.
func RequestModel(h Header, payload []byte) ([]byte, error) {
	ml := int(h.Aux)
	if ml == 0 || ml > MaxModelName || len(payload) < ml {
		return nil, fmt.Errorf("netserve: model-name length %d out of bounds for a %d-byte payload", ml, len(payload))
	}
	return payload[:ml], nil
}

// encodeF32 writes data little-endian into p (len(p) == 4·len(data)).
func encodeF32(p []byte, data []float32) {
	for i, v := range data {
		binary.LittleEndian.PutUint32(p[4*i:], math.Float32bits(v))
	}
}

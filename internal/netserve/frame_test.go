package netserve

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// frameBytes encodes one request frame for the corruption tables to
// mutilate.
func frameBytes(t testing.TB) []byte {
	t.Helper()
	data := []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	buf, err := AppendRequest(nil, 42, "hep-small", []int{3, 2, 2}, data)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestRequestRoundTrip(t *testing.T) {
	data := []float32{0.5, -1.25, 3e7, -0, 42, 1e-20}
	buf, err := AppendRequest(nil, 7, "climate-paper", []int{1, 2, 3}, data)
	if err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, headerLen)
	h, payload, err := ReadFrame(bytes.NewReader(buf), hdr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.Type != FrameRequest || h.ID != 7 {
		t.Fatalf("header round trip: %+v", h)
	}
	var tw TensorWire
	model, err := DecodeRequest(h, payload, &tw)
	if err != nil {
		t.Fatal(err)
	}
	if string(model) != "climate-paper" {
		t.Fatalf("model round trip: %q", model)
	}
	if tw.NDims != 3 || tw.Dims[0] != 1 || tw.Dims[1] != 2 || tw.Dims[2] != 3 || tw.Elems != 6 {
		t.Fatalf("shape round trip: %+v", tw)
	}
	got := make([]float32, tw.Elems)
	if err := tw.DecodeInto(got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("float %d: got %v want %v", i, got[i], data[i])
		}
	}
	// The dispatch-path peek sees the same model without a tensor decode.
	m2, err := RequestModel(h, payload)
	if err != nil || string(m2) != "climate-paper" {
		t.Fatalf("RequestModel: %q, %v", m2, err)
	}
}

func TestResponseAndControlRoundTrip(t *testing.T) {
	data := []float32{9, 8, 7, 6}
	buf := AppendResponse(nil, 11, []int{2, 2}, data)
	buf = AppendError(buf, 12, CodeUnknownModel, "no model by that name")
	buf = AppendControl(buf, FrameGoaway, 0)
	buf = AppendControl(buf, FrameCancel, 13)

	r := bytes.NewReader(buf)
	hdr := make([]byte, headerLen)

	h, payload, err := ReadFrame(r, hdr, nil)
	if err != nil || h.Type != FrameResponse || h.ID != 11 {
		t.Fatalf("response frame: %+v, %v", h, err)
	}
	var tw TensorWire
	if err := DecodeResponse(payload, &tw); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, tw.Elems)
	if err := tw.DecodeInto(got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("response float %d: got %v want %v", i, got[i], data[i])
		}
	}

	h, payload, err = ReadFrame(r, hdr, payload)
	if err != nil || h.Type != FrameError || h.ID != 12 {
		t.Fatalf("error frame: %+v, %v", h, err)
	}
	re := &RemoteError{Code: ErrCode(h.Aux), Msg: string(payload)}
	if re.Code != CodeUnknownModel || !strings.Contains(re.Error(), "no model by that name") {
		t.Fatalf("error round trip: %v", re)
	}

	h, _, err = ReadFrame(r, hdr, payload)
	if err != nil || h.Type != FrameGoaway || h.N != 0 {
		t.Fatalf("goaway frame: %+v, %v", h, err)
	}
	h, _, err = ReadFrame(r, hdr, payload)
	if err != nil || h.Type != FrameCancel || h.ID != 13 {
		t.Fatalf("cancel frame: %+v, %v", h, err)
	}
	if _, _, err = ReadFrame(r, hdr, payload); err != io.EOF {
		t.Fatalf("clean end of stream: %v", err)
	}
}

func TestRawSplicePreservesPayload(t *testing.T) {
	orig := frameBytes(t)
	h, err := ParseHeader(orig)
	if err != nil {
		t.Fatal(err)
	}
	payload := orig[headerLen:]

	// Router forward: same payload, new id.
	spliced := AppendRequestRaw(nil, 99, int(h.Aux), payload)
	h2, err := ParseHeader(spliced)
	if err != nil {
		t.Fatal(err)
	}
	if h2.ID != 99 || h2.Aux != h.Aux || h2.N != h.N {
		t.Fatalf("splice header: %+v vs %+v", h2, h)
	}
	if !bytes.Equal(spliced[headerLen:], payload) {
		t.Fatal("splice mangled the payload")
	}

	// Router return: response payload spliced back under the client id.
	resp := AppendResponse(nil, 5, []int{2}, []float32{1, 2})
	back := AppendResponseRaw(nil, 77, resp[headerLen:])
	h3, err := ParseHeader(back)
	if err != nil || h3.ID != 77 || h3.Type != FrameResponse {
		t.Fatalf("return splice header: %+v, %v", h3, err)
	}
	if !bytes.Equal(back[headerLen:], resp[headerLen:]) {
		t.Fatal("return splice mangled the payload")
	}
}

// corruptFrameCases is the frame-level corruption table (also the fuzz
// target's seed corpus): each mutates a well-formed request frame.
var corruptFrameCases = []struct {
	name    string
	mutate  func([]byte) []byte
	wantErr string
}{
	{
		"bad magic",
		func(b []byte) []byte { binary.LittleEndian.PutUint32(b[0:], 0xdeadbeef); return b },
		"bad magic",
	},
	{
		"bad version",
		func(b []byte) []byte { b[4] = 9; return b },
		"unsupported frame version",
	},
	{
		"unknown frame type",
		func(b []byte) []byte { b[5] = 0x7f; return b },
		"unknown frame type",
	},
	{
		"zero frame type",
		func(b []byte) []byte { b[5] = 0; return b },
		"unknown frame type",
	},
	{
		"truncated header",
		func(b []byte) []byte { return b[:headerLen-3] },
		"short frame header",
	},
	{
		"truncated payload",
		func(b []byte) []byte { return b[:len(b)-5] },
		"truncated",
	},
	{
		"oversize payload length",
		func(b []byte) []byte { binary.LittleEndian.PutUint32(b[16:], MaxPayload+1); return b },
		"exceeds",
	},
	{
		"payload length lies long",
		func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[16:], uint32(len(b)-headerLen+64))
			return b
		},
		"truncated",
	},
}

// TestDecodeRejectsCorruptFrames is the hardened-decode table, mirroring
// data.OpenShard's posture: every corruption mode is an explicit error
// naming what went wrong, never a panic, hang, or silent misparse.
func TestDecodeRejectsCorruptFrames(t *testing.T) {
	for _, tc := range corruptFrameCases {
		t.Run(tc.name, func(t *testing.T) {
			buf := tc.mutate(frameBytes(t))
			hdr := make([]byte, headerLen)
			_, _, err := ReadFrame(bytes.NewReader(buf), hdr, nil)
			if err == nil {
				t.Fatal("corrupt frame decoded cleanly")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the corruption (want %q)", err, tc.wantErr)
			}
		})
	}
}

// corruptRequestCases is the request-body corruption table (and the rest of
// the fuzz target's seed corpus): model-name and tensor-region corruption
// that a well-framed payload can still carry. hdr rewrites the parsed
// header, mutate the payload; either may be nil.
var corruptRequestCases = []struct {
	name    string
	hdr     func(Header) Header
	mutate  func([]byte) []byte
	wantErr string
}{
	{
		"zero model length",
		func(h Header) Header { h.Aux = 0; return h },
		nil,
		"model-name length",
	},
	{
		"model length beyond payload",
		func(h Header) Header { h.Aux = uint16(h.N + 1); return h },
		nil,
		"model name",
	},
	{
		"zero rank",
		nil,
		func(p []byte) []byte { p[9] = 0; return p }, // rank byte follows the 9-byte model name
		"rank 0 out of bounds",
	},
	{
		"rank beyond MaxDims",
		nil,
		func(p []byte) []byte { p[9] = MaxDims + 1; return p },
		"rank",
	},
	{
		"zero dim",
		nil,
		func(p []byte) []byte { binary.LittleEndian.PutUint32(p[10:], 0); return p },
		"impossible dim",
	},
	{
		"overflowing dim product",
		nil,
		func(p []byte) []byte {
			// Each dim individually under the bound; product overflows it.
			binary.LittleEndian.PutUint32(p[10:], 1<<23)
			binary.LittleEndian.PutUint32(p[14:], 1<<23)
			binary.LittleEndian.PutUint32(p[18:], 1<<23)
			return p
		},
		"overflows",
	},
	{
		"shape promises more than payload carries",
		nil,
		func(p []byte) []byte { binary.LittleEndian.PutUint32(p[10:], 100); return p },
		"shape promises",
	},
	{
		"payload truncated inside dims",
		nil,
		func(p []byte) []byte { return p[:11] },
		"truncated inside",
	},
}

// TestDecodeRejectsCorruptRequests covers the request-body layer.
func TestDecodeRejectsCorruptRequests(t *testing.T) {
	well := frameBytes(t)
	h, err := ParseHeader(well)
	if err != nil {
		t.Fatal(err)
	}
	payload := well[headerLen:]

	for _, tc := range corruptRequestCases {
		t.Run(tc.name, func(t *testing.T) {
			hh := h
			if tc.hdr != nil {
				hh = tc.hdr(h)
			}
			p := append([]byte(nil), payload...)
			if tc.mutate != nil {
				p = tc.mutate(p)
			}
			var tw TensorWire
			_, err := DecodeRequest(hh, p, &tw)
			if err == nil {
				t.Fatal("corrupt request decoded cleanly")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not name the corruption (want %q)", err, tc.wantErr)
			}
		})
	}
}

func TestAppendRequestRejectsBadInput(t *testing.T) {
	if _, err := AppendRequest(nil, 1, "", []int{1}, nil); err == nil {
		t.Fatal("empty model name accepted")
	}
	if _, err := AppendRequest(nil, 1, strings.Repeat("x", MaxModelName+1), []int{1}, nil); err == nil {
		t.Fatal("oversize model name accepted")
	}
	if _, err := AppendRequest(nil, 1, "m", nil, nil); err == nil {
		t.Fatal("rank-0 request accepted")
	}
	if _, err := AppendRequest(nil, 1, "m", make([]int, MaxDims+1), nil); err == nil {
		t.Fatal("over-rank request accepted")
	}
}

func TestDecodeIntoPolicesLength(t *testing.T) {
	buf := AppendResponse(nil, 1, []int{4}, []float32{1, 2, 3, 4})
	var tw TensorWire
	if err := DecodeResponse(buf[headerLen:], &tw); err != nil {
		t.Fatal(err)
	}
	if err := tw.DecodeInto(make([]float32, 3)); err == nil {
		t.Fatal("short destination accepted")
	}
}

// TestFramingZeroAlloc gates the hot-path contract: with warm reused
// buffers, encoding and decoding frames allocates nothing on either the
// client side (request encode, response decode) or the server side
// (request decode, response encode).
func TestFramingZeroAlloc(t *testing.T) {
	data := make([]float32, 3*8*8)
	shape := []int{3, 8, 8}
	scratch := make([]float32, len(data))
	hdr := make([]byte, headerLen)
	var tw TensorWire

	// Warm the reused buffers once.
	enc, err := AppendRequest(nil, 1, "hep-small", shape, data)
	if err != nil {
		t.Fatal(err)
	}
	resp := AppendResponse(nil, 1, []int{3, 2}, make([]float32, 6))
	payload := make([]byte, 0, len(enc))
	r := bytes.NewReader(enc)

	if n := testing.AllocsPerRun(100, func() {
		enc = enc[:0]
		enc, err = AppendRequest(enc, 2, "hep-small", shape, data)
		if err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("client request encode allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(enc)
		h, p, err := ReadFrame(r, hdr, payload[:0])
		if err != nil {
			t.Fatal(err)
		}
		payload = p[:0]
		if _, err := DecodeRequest(h, p, &tw); err != nil {
			t.Fatal(err)
		}
		if err := tw.DecodeInto(scratch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("server request decode allocates %.1f/op, want 0", n)
	}
	respData := make([]float32, 6)
	if n := testing.AllocsPerRun(100, func() {
		resp = resp[:0]
		resp = AppendResponse(resp, 3, []int{3, 2}, respData)
	}); n != 0 {
		t.Fatalf("server response encode allocates %.1f/op, want 0", n)
	}
	respScratch := make([]float32, 6)
	if n := testing.AllocsPerRun(100, func() {
		r.Reset(resp)
		_, p, err := ReadFrame(r, hdr, payload[:0])
		if err != nil {
			t.Fatal(err)
		}
		payload = p[:0]
		if err := DecodeResponse(p, &tw); err != nil {
			t.Fatal(err)
		}
		if err := tw.DecodeInto(respScratch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("client response decode allocates %.1f/op, want 0", n)
	}
}

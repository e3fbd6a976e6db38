package netserve

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeRequest feeds arbitrary bytes to the request path a backend
// runs on every frame — ParseHeader, DecodeRequest, TensorWire.DecodeInto —
// seeded with a well-formed frame and the sixteen corruptions of the two
// tables above. Whatever the bytes: no panic; a decoded tensor never
// claims more elements than the payload present carries, so the
// destination a caller sizes from it is bounded by bytes actually
// received; and a frame that decodes re-encodes to the same bytes.
func FuzzDecodeRequest(f *testing.F) {
	well := frameBytes(f)
	f.Add(well)
	for _, tc := range corruptFrameCases {
		f.Add(tc.mutate(frameBytes(f)))
	}
	h, err := ParseHeader(well)
	if err != nil {
		f.Fatal(err)
	}
	for _, tc := range corruptRequestCases {
		hh, p := h, append([]byte(nil), well[headerLen:]...)
		if tc.hdr != nil {
			hh = tc.hdr(h)
		}
		if tc.mutate != nil {
			p = tc.mutate(p)
		}
		frame := make([]byte, headerLen, headerLen+len(p))
		putHeader(frame, hh.Type, hh.Aux, hh.ID, len(p))
		f.Add(append(frame, p...))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		h, err := ParseHeader(frame)
		if err != nil || h.Type != FrameRequest || len(frame)-headerLen < h.N {
			return // rejected at the frame boundary (ReadFrame reports the truncation)
		}
		frame = frame[:headerLen+h.N]
		var tw TensorWire
		model, err := DecodeRequest(h, frame[headerLen:], &tw)
		if err != nil {
			return
		}
		if len(model)+1+4*tw.NDims+4*tw.Elems != h.N {
			t.Fatalf("decoded %d-byte model, rank %d, %d elements out of a %d-byte payload", len(model), tw.NDims, tw.Elems, h.N)
		}
		data := make([]float32, tw.Elems)
		if err := tw.DecodeInto(data); err != nil {
			t.Fatal(err)
		}
		again, err := AppendRequest(nil, h.ID, string(model), tw.Shape(), data)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("re-encoded frame differs:\n got %x\nwant %x", again, frame)
		}
	})
}

// FuzzDecodeResponse is FuzzDecodeRequest for the path a client runs on
// every response frame — ParseHeader, DecodeResponse, TensorWire.DecodeInto
// — the parser bulk.ScoreFleet trusts with a backend's bytes. Seeds: a
// well-formed response, the frame-level corruptions applied to it, and the
// request table's tensor-region corruptions with the model name cut off.
// Whatever the bytes: no panic; a decoded tensor never claims more
// elements than the payload carries; and a response that decodes
// re-encodes to the same bytes (Aux, unused by a response, carried over).
// Fuzz with go test -run '^$' -fuzz FuzzDecodeResponse ./internal/netserve.
func FuzzDecodeResponse(f *testing.F) {
	response := func() []byte {
		return AppendResponse(nil, 42, []int{3, 2, 2}, []float32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	}
	f.Add(response())
	for _, tc := range corruptFrameCases {
		f.Add(tc.mutate(response()))
	}
	well := frameBytes(f)
	h, err := ParseHeader(well)
	if err != nil {
		f.Fatal(err)
	}
	for _, tc := range corruptRequestCases {
		if tc.mutate == nil {
			continue // model-name cases: a response has none
		}
		p := tc.mutate(append([]byte(nil), well[headerLen:]...))[h.Aux:]
		f.Add(AppendResponseRaw(nil, h.ID, p))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		h, err := ParseHeader(frame)
		if err != nil || h.Type != FrameResponse || len(frame)-headerLen < h.N {
			return // rejected at the frame boundary (ReadFrame reports the truncation)
		}
		frame = frame[:headerLen+h.N]
		var tw TensorWire
		if err := DecodeResponse(frame[headerLen:], &tw); err != nil {
			return
		}
		if 1+4*tw.NDims+4*tw.Elems != h.N {
			t.Fatalf("decoded rank %d, %d elements out of a %d-byte payload", tw.NDims, tw.Elems, h.N)
		}
		data := make([]float32, tw.Elems)
		if err := tw.DecodeInto(data); err != nil {
			t.Fatal(err)
		}
		again := AppendResponse(nil, h.ID, tw.Shape(), data)
		binary.LittleEndian.PutUint16(again[6:], h.Aux)
		if !bytes.Equal(again, frame) {
			t.Fatalf("re-encoded frame differs:\n got %x\nwant %x", again, frame)
		}
	})
}

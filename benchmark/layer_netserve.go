package main

// Adapter for internal/netserve — the only file of the benchmark that
// imports it. Entry points used: NewServer, ServerConfig, NewRouter,
// RouterConfig, Router.Addr/Metrics/Close, Server.Addr/Close, Dial,
// Client.InferInto/Close, AppendRequest, AppendResponse, ParseHeader,
// DecodeRequest, TensorWire.DecodeInto.

import (
	"time"

	"deep15pf/internal/netserve"
)

type (
	NetBackend = netserve.Server
	NetRouter  = netserve.Router
	NetClient  = netserve.Client
)

// newBackend puts eng on a loopback TCP listener under the model name.
func newBackend(model string, eng *ServeEngine, tr *Tracer) (*NetBackend, error) {
	return netserve.NewServer("127.0.0.1:0", map[string]*ServeEngine{model: eng}, netserve.ServerConfig{Trace: tr})
}

// newRouter fronts the backends with a plain router: no hedging, no
// admission control, so every request is routed exactly once.
func newRouter(backends []string, tr *Tracer) (*NetRouter, error) {
	return netserve.NewRouter("127.0.0.1:0", backends, netserve.RouterConfig{Trace: tr})
}

func dial(addr string) (*NetClient, error) { return netserve.Dial(addr) }

// frameHeaderLen is the D15R frame prelude: magic, version, type, aux, id,
// payload length.
const frameHeaderLen = 20

// probeFraming times encoding one request frame and decoding it back into
// a tensor, and returns both with the request and response frame sizes.
func probeFraming(model string, x *Tensor, outLen int, budget time.Duration) (encNs, decNs float64, reqBytes, respBytes int, err error) {
	var buf []byte
	if buf, err = netserve.AppendRequest(buf[:0], 1, model, x.Shape, x.Data); err != nil {
		return
	}
	reqBytes = len(buf)
	respBytes = len(netserve.AppendResponse(nil, 1, []int{outLen}, make([]float32, outLen)))
	encNs = timeLoop(budget, func() { buf, _ = netserve.AppendRequest(buf[:0], 1, model, x.Shape, x.Data) }) * 1e9
	dst := make([]float32, x.Len())
	var tw netserve.TensorWire
	var derr error
	decNs = timeLoop(budget, func() {
		h, e := netserve.ParseHeader(buf[:frameHeaderLen])
		if e == nil {
			_, e = netserve.DecodeRequest(h, buf[frameHeaderLen:], &tw)
		}
		if e == nil {
			e = tw.DecodeInto(dst)
		}
		if e != nil {
			derr = e
		}
	}) * 1e9
	return encNs, decNs, reqBytes, respBytes, derr
}

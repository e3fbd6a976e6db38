package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// fleet is the system serve_fleet drives: two in-process backends, each a
// batching engine behind a loopback TCP listener, behind one router, with
// one multiplexed client connection carrying all load.
type fleet struct {
	engines  []*ServeEngine
	backends []*NetBackend
	router   *NetRouter
	client   *NetClient
	// tracers holds one program tracer per component when the fleet was
	// brought up traced (lane names repeat across engines, so they cannot
	// share one): engines first, then backends, then the router.
	tracers []*Tracer
}

const (
	fleetBackends = 2
	fleetMaxBatch = 16
	fleetClients  = 16
	openLoopRate  = 2000.0 // requests per second, fixed
)

func bringUpFleet(lm *ServeModel, model string, traced bool) (*fleet, error) {
	f := &fleet{}
	tracer := func() *Tracer {
		if !traced {
			return nil
		}
		tr := newTracer()
		f.tracers = append(f.tracers, tr)
		return tr
	}
	for i := 0; i < fleetBackends; i++ {
		eng, err := newEngine(lm, fleetMaxBatch, 1, tracer())
		if err != nil {
			f.close()
			return nil, err
		}
		f.engines = append(f.engines, eng)
	}
	var addrs []string
	for _, eng := range f.engines {
		be, err := newBackend(model, eng, tracer())
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, be)
		addrs = append(addrs, be.Addr())
	}
	var err error
	if f.router, err = newRouter(addrs, tracer()); err != nil {
		f.close()
		return nil, err
	}
	if f.client, err = dial(f.router.Addr()); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close tears the fleet down front to back and waits for each part.
func (f *fleet) close() {
	if f.client != nil {
		f.client.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, be := range f.backends {
		be.Close()
	}
	for _, eng := range f.engines {
		eng.Close()
	}
}

// serveFleet is the serve_fleet workload.
type serveFleet struct {
	model  HepModel
	net    *Network
	lm     *ServeModel
	inputs []*Tensor
	ref    [][]float32 // reference logits per input, from a direct plan forward
	outLen int
	fl     *fleet

	winA, winB time.Duration
	routedSent atomic.Int64 // requests sent through fl's router, warm-up included

	closedLat, openLat []float64 // pooled over the run; openLat over the valid windows only
	lateLat            []float64 // open-loop latencies of the windows left out
	lateMs             []float64 // generator lateness per open window
	pool               sync.Pool
}

func newServeFleet() workload { return &serveFleet{} }

func (s *serveFleet) setup(c *runCtx) error {
	s.model = hepTiny()
	s.net = hepBuildNet(s.model, c.seed+1)
	s.winA = time.Duration(c.scale(2000, 150)) * time.Millisecond
	s.winB = time.Duration(c.scale(2000, 150)) * time.Millisecond
	dir := filepath.Join(c.dir, fmt.Sprintf("serve-%d", time.Now().UnixNano()))
	path := filepath.Join(dir, "tiny.d15w")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := saveWeights(path, s.net); err != nil {
		return err
	}
	var err error
	if s.lm, err = loadHepCheckpoint(s.model, path, false); err != nil {
		return err
	}
	const inputs = 64
	ds := hepGenerate(s.model, inputs, c.seed)
	per := ds.Images.Len() / inputs
	s.inputs = s.inputs[:0]
	for i := 0; i < inputs; i++ {
		s.inputs = append(s.inputs, tensorFromSlice(ds.Images.Data[i*per:(i+1)*per], ds.Images.Shape[1:]...))
	}
	ref := referenceForward(s.net, ds.Images)
	s.outLen = ref.Len() / inputs
	s.ref = s.ref[:0]
	for i := 0; i < inputs; i++ {
		s.ref = append(s.ref, ref.Data[i*s.outLen:(i+1)*s.outLen])
	}
	s.pool.New = func() any { return newTensor(s.outLen) }
	if s.fl, err = bringUpFleet(s.lm, s.model.Name, false); err != nil {
		return err
	}
	warm := closedLoop(s.via(s.fl.client, &s.routedSent), len(s.inputs), fleetClients, s.winA/4, c.seed) // warm-up repetition
	if warm.Failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", warm.Failed, warm.Sent)
	}
	return nil
}

func (s *serveFleet) teardown() {
	if s.fl != nil {
		s.fl.close()
		s.fl = nil
	}
}

// via returns the request function for one client connection: send input
// i, decode into a pooled tensor, and hold the response against the
// reference logits.
func (s *serveFleet) via(cl *NetClient, sent *atomic.Int64) request {
	return func(i int) bool {
		if sent != nil {
			sent.Add(1)
		}
		y := s.pool.Get().(*Tensor)
		defer s.pool.Put(y)
		if err := cl.InferInto(s.model.Name, s.inputs[i], y); err != nil {
			return false
		}
		return maxAbsDiff(y.Data, s.ref[i]) <= 1e-5
	}
}

// lateLimitMs is the mean generator lateness above which an open-loop
// window says more about the generator than about the system.
const lateLimitMs = 0.1

// windows runs one closed-loop and one open-loop window against fl and
// returns both.
func (s *serveFleet) windows(c *runCtx, fl *fleet, sent *atomic.Int64, rep, parent int) (closed, open loadResult) {
	do := s.via(fl.client, sent)
	id := c.spans.begin("client", "closed loop", parent, rep)
	closed = closedLoop(do, len(s.inputs), fleetClients, s.winA, c.seed+uint64(rep))
	c.spans.end(id)
	id = c.spans.begin("client", "open loop", parent, rep)
	open = openLoop(do, poissonSchedule(openLoopRate, s.winB, len(s.inputs), c.seed+uint64(rep)))
	c.spans.end(id)
	c.ops(int64(closed.Sent+open.Sent), int64(closed.Failed+open.Failed))
	return closed, open
}

// measure runs one repetition: a closed-loop window, whose rate is one
// sample of samples_per_s, and an open-loop window, whose latencies join
// the run's pool.
func (s *serveFleet) measure(c *runCtx, rep int) error {
	closed, open := s.windows(c, s.fl, &s.routedSent, rep, -1)
	c.add("samples_per_s", closed.rate())
	s.pools(c, closed, open)
	return nil
}

// pools adds a repetition's latencies to the run's pools. An open-loop
// window whose generator ran late is invalid: its latencies are kept apart.
// Closed-loop latencies are only read by the traced run, and an untraced
// run does not hold on to them: at 50 000 a second they would be a fifth of
// the peak_rss_mb it reports.
func (s *serveFleet) pools(c *runCtx, closed, open loadResult) {
	if c.trace {
		s.closedLat = append(s.closedLat, closed.LatMs...)
	}
	s.lateMs = append(s.lateMs, open.LateMsMean)
	if open.LateMsMean > lateLimitMs {
		s.lateLat = append(s.lateLat, open.LatMs...)
		return
	}
	s.openLat = append(s.openLat, open.LatMs...)
}

func (s *serveFleet) finish(c *runCtx) {
	invalid := 0
	for _, late := range s.lateMs {
		if late > lateLimitMs {
			invalid++
		}
	}
	c.info["open_loop_windows"] = fmt.Sprint(len(s.lateMs))
	c.info["open_loop_windows_generator_late"] = fmt.Sprint(invalid)
	if !c.trace {
		// The open-loop p50 from each request's due time, pooled over the
		// run's valid windows. If the generator ran late in every window,
		// report from them all the same (the info lines say so) sooner
		// than report nothing.
		pool := s.openLat
		if len(pool) == 0 {
			pool = s.lateLat
		}
		c.set("time_to_result_ms", percentile(sorted(pool), 0.5))
		c.metric("time_to_result_ms").N = len(pool)
	}
	// Zero dropped: every request the benchmark sent through the router
	// was routed once, and none was hedged, shed or retried.
	cnt := counters(s.fl.router.Metrics())
	c.check("router_counts", cnt["router.routed"] == s.routedSent.Load() && cnt["router.hedged"] == 0 && cnt["router.shed"] == 0 && cnt["router.retries"] == 0,
		"sent %d, routed %d, hedged %d, shed %d, retries %d", s.routedSent.Load(), cnt["router.routed"], cnt["router.hedged"], cnt["router.shed"], cnt["router.retries"])
	if c.trace {
		c.set("netserve.routed", float64(cnt["router.routed"]))
		c.set("netserve.hedged", float64(cnt["router.hedged"]))
		c.set("netserve.shed", float64(cnt["router.shed"]))
		c.set("netserve.retries", float64(cnt["router.retries"]))
	}
}

func (s *serveFleet) traced(c *runCtx) error {
	tfl, err := bringUpFleet(s.lm, s.model.Name, true)
	if err != nil {
		return err
	}
	defer tfl.close()
	closedLoop(s.via(tfl.client, nil), len(s.inputs), fleetClients, s.winA/4, c.seed) // warm the traced fleet
	for _, eng := range tfl.engines {
		eng.ResetStats()
	}

	// The untraced and the traced fleet take turns, window for window.
	root := c.spans.begin("benchmark", "repetitions", -1, 0)
	var plain, withTrace []float64
	var tracedReqs int
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start).Seconds() < 0.7*c.seconds; rep++ {
		closed, open := s.windows(c, s.fl, &s.routedSent, rep, root)
		plain = append(plain, closed.rate())
		s.pools(c, closed, open)
		closed, open = s.windows(c, tfl, nil, rep, root)
		withTrace = append(withTrace, closed.rate())
		tracedReqs += closed.Sent + open.Sent
	}
	c.spans.end(root)
	c.set("obs.trace_overhead_frac", 1-median(withTrace)/median(plain))

	// serve: exact counts from Stats, queue and inference time from the
	// Queue/Infer spans the engines emit.
	var reqs, batches int64
	var inferSec, wallSec, queueSec, inferSpanSec float64
	var queueN, inferN, spans int
	var dropped int64
	for i, eng := range tfl.engines {
		st := eng.Stats()
		reqs += st.Requests
		batches += st.Batches
		inferSec += st.InferSeconds
		wallSec += st.Wall.Seconds()
		sum := summarizeTrace(tfl.tracers[i], nil)
		queueSec, queueN = queueSec+sum.PhaseSec["Queue"], queueN+sum.PhaseCount["Queue"]
		inferSpanSec, inferN = inferSpanSec+sum.PhaseSec["Infer"], inferN+sum.PhaseCount["Infer"]
	}
	for _, tr := range tfl.tracers {
		sum := summarizeTrace(tr, nil)
		spans, dropped = spans+sum.Spans, dropped+sum.Dropped
	}
	c.set("serve.mean_batch", float64(reqs)/float64(max(batches, 1)))
	c.set("serve.duty_cycle", inferSec/wallSec)
	c.set("serve.queue_ms_per_batch", queueSec/float64(max(queueN, 1))*1e3)
	c.set("serve.infer_ms_per_batch", inferSpanSec/float64(max(inferN, 1))*1e3)
	c.set("obs.spans_per_iter", float64(spans)/float64(max(tracedReqs, 1)))
	c.set("obs.dropped_spans", float64(dropped))
	if c.outDir != "" {
		if err := tfl.tracers[0].WriteTraceFile(filepath.Join(c.outDir, c.workload+".obs.trace.json")); err != nil {
			return err
		}
	}

	c.set("client.gen_late_ms_mean", mean(s.lateMs))
	closedAsc, openAsc := sorted(s.closedLat), sorted(s.openLat)
	c.set("client.closed_p50_ms", percentile(closedAsc, 0.5))
	p, used := tailPercentile(closedAsc, 0.99)
	c.set("client.closed_p99_ms", p)
	c.info["client.closed_p99_ms.quantile"] = fmt.Sprintf("%g of %d", used, len(closedAsc))
	p, used = tailPercentile(openAsc, 0.99)
	c.set("client.open_p99_ms", p)
	c.info["client.open_p99_ms.quantile"] = fmt.Sprintf("%g of %d", used, len(openAsc))
	p, used = tailPercentile(openAsc, 0.999)
	c.set("client.open_p999_ms", p)
	c.info["client.open_p999_ms.quantile"] = fmt.Sprintf("%g of %d", used, len(openAsc))
	openP50 := percentile(openAsc, 0.5)

	return s.probes(c, openP50)
}

// probes times each hop alone on an idle system, one request at a time, so
// the hops subtract cleanly: in-process Submit, plus the socket to a
// backend, plus the router in front of it.
func (s *serveFleet) probes(c *runCtx, openP50 float64) error {
	root := c.spans.begin("benchmark", "probes", -1, 0)
	defer c.spans.end(root)
	n := c.scale(400, 40)
	b := c.budget(200 * time.Millisecond)

	id := c.spans.begin("serve", "Submit one at a time", root, 0)
	eng, err := newEngine(s.lm, fleetMaxBatch, 1, nil)
	if err != nil {
		return err
	}
	defer eng.Close()
	lat, err := probeSubmit(eng, s.inputs, n)
	if err != nil {
		return err
	}
	submitP50 := percentile(lat, 0.5)
	c.set("serve.submit_p50_ms", submitP50)
	c.spans.end(id)

	id = c.spans.begin("serve", "Submit ×16", root, 0)
	submit := func(i int) bool { _, err := eng.Submit(s.inputs[i]); return err == nil }
	closedLoop(submit, len(s.inputs), fleetClients, s.winA/4, 1)
	before := mallocs()
	res := closedLoop(submit, len(s.inputs), fleetClients, s.winA/2, 2)
	c.set("serve.allocs_per_req", float64(mallocs()-before)/float64(max(res.Sent, 1)))
	c.ops(int64(res.Sent), int64(res.Failed))
	c.spans.end(id)

	// One request at a time over each path, in alternating blocks so a
	// drift of the host lands on both; the p50 of each path is pooled.
	oneByOne := func(cl *NetClient, sent *atomic.Int64, lat *[]float64) (allocs float64) {
		do := s.via(cl, sent)
		var failed int
		before := mallocs()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if !do(i % len(s.inputs)) {
				failed++
			}
			*lat = append(*lat, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		c.ops(int64(n), int64(failed))
		return float64(mallocs()-before) / float64(n)
	}
	id = c.spans.begin("netserve", "client→backend and client→router→backend", root, 0)
	direct, err := dial(s.fl.backends[0].Addr())
	if err != nil {
		return err
	}
	defer direct.Close()
	var directLat, routedLat, warm []float64
	oneByOne(direct, nil, &warm)
	oneByOne(s.fl.client, &s.routedSent, &warm)
	var allocs []float64
	for block := 0; block < 5; block++ {
		allocs = append(allocs, oneByOne(direct, nil, &directLat))
		oneByOne(s.fl.client, &s.routedSent, &routedLat)
	}
	directP50, routedP50 := percentile(sorted(directLat), 0.5), percentile(sorted(routedLat), 0.5)
	c.set("netserve.direct_p50_ms", directP50)
	c.set("netserve.allocs_per_req", median(allocs))
	c.set("netserve.routed_p50_ms", routedP50)
	c.set("netserve.router_hop_ms", routedP50-directP50)
	c.set("netserve.wire_hop_ms", directP50-submitP50)
	c.spans.end(id)

	id = c.spans.begin("netserve", "framing", root, 0)
	enc, dec, reqB, respB, err := probeFraming(s.model.Name, s.inputs[0], s.outLen, b)
	if err != nil {
		return err
	}
	c.set("netserve.encode_req_ns", enc)
	c.set("netserve.decode_req_ns", dec)
	c.set("netserve.bytes_per_req", float64(reqB+respB))
	c.spans.end(id)

	id = c.spans.begin("nn", "Plan.Forward tiny b16", root, 0)
	tinyUs := probeInfer(s.net, fleetMaxBatch, false, b) * 1e3
	c.set("nn.hep_tiny_fwd_us_b16", tinyUs)
	c.spans.end(id)
	// The bypass prediction. The issue put it as: a forward at batch 16
	// stays under 5% of the open-loop p50. Measured without the generator
	// in its way the p50 is 0.2–0.3 ms, less than that forward itself, so
	// the criterion is recorded as not met; what compute does cost a
	// request here is its share of a batch, given beside it.
	if !c.smoke && openP50 > 0 {
		c.observe("compute_is_minor", tinyUs/1e3 < 0.05*openP50,
			"a forward at batch %d takes %.1f µs, %.0f%% of the open-loop p50 of %.3f ms (under 5%% asked); one request's share of it, %.1f µs, is %.0f%%",
			fleetMaxBatch, tinyUs, 100*tinyUs/1e3/openP50, openP50, tinyUs/fleetMaxBatch, 100*tinyUs/fleetMaxBatch/1e3/openP50)
	}
	return nil
}

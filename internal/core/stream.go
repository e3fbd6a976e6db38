package core

import (
	"sync"

	"deep15pf/internal/comm"
	"deep15pf/internal/data"
	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/ps"
)

// layerXfer is one trainable layer's exchange state on a group root: the
// reusable wire buffers, the per-layer codec instance (stochastic-rounding
// RNG state is not goroutine-safe, so each pusher owns its own), and the
// weight views the parameter server writes fresh weights straight into —
// they alias the root replica's parameter storage, so a completed push IS
// the install, no copy.
type layerXfer struct {
	params  []*nn.Param
	codec   comm.Codec
	wires   []*comm.Wire
	weights [][]float32
	stale   int
	trigger chan struct{}
}

// exchanger drives a group root's parameter-server traffic from one
// dedicated pusher goroutine per trainable layer — the paper's Fig 4
// arrangement made concurrent. The root's backward pass triggers layer t's
// pusher the moment t's gradients are final; the pusher waits for the
// intra-group reduction, encodes through the wire codec, exchanges with
// layer t's dedicated server and lands the fresh weights, all while the
// backward pass is still producing earlier layers. Everything it touches
// per iteration — handles, wires, weight views — is preallocated, so the
// steady state allocates nothing.
type exchanger struct {
	fleet   *ps.Fleet
	groupID int
	xfers   []*layerXfer
	handles [][]comm.Handle // shared with the root worker, synchronised by trigger
	done    chan int
	wg      sync.WaitGroup
}

// newExchanger builds the per-layer pushers for a group root. handles is
// the root worker's per-layer handle table: the worker fills row t before
// triggering pusher t (the channel send publishes the writes).
func newExchanger(fleet *ps.Fleet, groupID int, layers []nn.Layer, handles [][]comm.Handle, codecName string, runSeed uint64) *exchanger {
	e := &exchanger{
		fleet:   fleet,
		groupID: groupID,
		handles: handles,
		done:    make(chan int, len(layers)),
	}
	for t, l := range layers {
		// Codecs are seeded per group and layer, so int8 rounding streams
		// are independent.
		codec, err := comm.NewCodec(codecName, runSeed+uint64(groupID)*0xC0DEC+uint64(t)*0x9E3779B9)
		if err != nil {
			panic("core: " + err.Error())
		}
		params := l.Params()
		x := &layerXfer{
			params:  params,
			codec:   codec,
			wires:   make([]*comm.Wire, len(params)),
			weights: make([][]float32, len(params)),
			trigger: make(chan struct{}, 1),
		}
		for i, prm := range params {
			x.wires[i] = &comm.Wire{}
			x.weights[i] = prm.W.Data
		}
		e.xfers = append(e.xfers, x)
		e.wg.Add(1)
		go func(t int) {
			defer e.wg.Done()
			for range x.trigger {
				// The intra-group reduction must land before the encode
				// reads the gradients.
				for i := range e.handles[t] {
					e.handles[t][i].Wait()
				}
				for i, prm := range x.params {
					x.codec.Encode(x.wires[i], prm.Grad.Data)
				}
				res := e.fleet.PushWires(e.groupID, t, x.codec, x.wires, x.weights)
				x.stale = res.Staleness
				e.done <- t
			}
		}(t)
	}
	return e
}

// push hands layer t to its pusher. Called from the root's compute
// goroutine right after it has filled handles[t].
func (e *exchanger) push(t int) { e.xfers[t].trigger <- struct{}{} }

// await blocks until every layer's push of the current iteration has
// completed and returns the mean staleness across layers.
func (e *exchanger) await() float64 {
	var sum float64
	for i := 0; i < len(e.xfers); i++ {
		t := <-e.done
		sum += float64(e.xfers[t].stale)
	}
	return sum / float64(len(e.xfers))
}

// close stops the pushers. The exchanger must not be used afterwards.
func (e *exchanger) close() {
	for _, x := range e.xfers {
		close(x.trigger)
	}
	e.wg.Wait()
}

// groupWorker is one rank's steady-state training machinery: the replica,
// the cached per-layer parameter slices, the async-reduction handle table
// and — on rank 0 — the exchanger. Building it once per run is what makes
// iterations allocation-free.
type groupWorker struct {
	rank    int
	group   *comm.Group
	rep     *Replica
	layers  []nn.Layer
	lparams [][]*nn.Param
	handles [][]comm.Handle
	ex      *exchanger      // rank 0 only; nil for sync training
	notify  func(layer int) // prebuilt gradDone closure
	lossBuf []float64       // rank 0 only
	lane    *obs.Lane       // this rank's trace lane (nil = untraced)
}

// newGroupWorker builds rank's machinery around rep and hands the rank's
// trace lane (nil = untraced) to the replica, so it records its own
// Ingest/Fwd/Bwd spans.
func newGroupWorker(rank int, group *comm.Group, rep *Replica, lane *obs.Lane) *groupWorker {
	gw := &groupWorker{
		rank:   rank,
		group:  group,
		rep:    rep,
		layers: rep.TrainableLayers(),
		lane:   lane,
	}
	rep.SetTraceLane(lane)
	for _, l := range gw.layers {
		params := l.Params()
		gw.lparams = append(gw.lparams, params)
		gw.handles = append(gw.handles, make([]comm.Handle, len(params)))
	}
	if rank == 0 {
		gw.lossBuf = make([]float64, group.Size())
	}
	gw.notify = func(t int) {
		for i, prm := range gw.lparams[t] {
			gw.handles[t][i] = gw.group.AllReduceMeanAsync(gw.rank, prm.Grad.Data)
		}
		if gw.ex != nil {
			gw.ex.push(t)
		}
	}
	return gw
}

// compute runs one forward/backward over idx — which the replica's
// prefetcher has already staged — starting each layer's group-mean
// reduction (and, on a root, its push) the moment the backward pass has
// finished that layer (§III-D/E). On return, the root's layers are being
// exchanged by the pushers; non-root ranks have fully reduced gradients.
//
// An empty idx is an epoch-tail shard with zero samples (data.Split with
// more workers than samples): the rank skips staging and compute entirely —
// never compiling a zero-sample plan — but still joins every collective
// with its zeroed gradients so the group stays in lockstep.
func (gw *groupWorker) compute(idx []int) float64 {
	var loss float64
	if len(idx) == 0 {
		for t := len(gw.layers) - 1; t >= 0; t-- {
			gw.notify(t)
		}
	} else {
		loss = gw.rep.ComputeGradientsStream(gw.notify)
	}
	// Non-root ranks must not touch their gradient buffers (next ZeroGrad)
	// until the reductions land; the root's pushers wait on its behalf.
	if gw.ex == nil {
		gw.lane.Begin(obs.PhaseCommWait)
		for t := range gw.handles {
			for i := range gw.handles[t] {
				gw.handles[t][i].Wait()
			}
		}
		gw.lane.End(obs.PhaseCommWait)
	}
	return loss
}

// startIngest launches rank's prefetch pipeline over its shares of the
// pre-drawn group batches, in iteration order, and returns those shares.
// Every trainer stages this way. A batch that does not divide evenly (an
// epoch's short tail) leaves some ranks a smaller or empty share.
func startIngest(rep *Replica, batches [][]int, rank, workers int) [][]int {
	shares := make([][]int, len(batches))
	for it, b := range batches {
		lo, hi := data.Part(len(b), workers, rank)
		shares[it] = b[lo:hi]
	}
	rep.StartIngest(shares)
	return shares
}

// broadcastWeights fans the root's (freshly exchanged) model out to the
// group.
func (gw *groupWorker) broadcastWeights() {
	for _, params := range gw.lparams {
		for _, prm := range params {
			gw.group.Broadcast(gw.rank, 0, prm.W.Data)
		}
	}
}

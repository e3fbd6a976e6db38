// Package ps implements the paper's parameter servers (§II-B2, §III-E):
// each *trainable layer* gets a dedicated server holding the master copy of
// that layer's parameters and the solver state for them. Compute groups
// send layer gradients asynchronously; the server applies updates strictly
// in arrival order and returns the fresh model, tracking per-update
// staleness (the number of updates other groups applied between this
// group's read and its write — the quantity that degrades statistical
// efficiency as group count grows).
//
// Beyond the original Fig 4 arrangement, the streamed push path
// (PushWires) accepts codec-encoded gradients — the trainer pushes layer
// L+1 while layer L's backward is still executing — and writes the fresh
// weights into caller-owned buffers, so a steady-state push allocates
// nothing.
package ps

import (
	"fmt"
	"sync"

	"deep15pf/internal/comm"
	"deep15pf/internal/nn"
	"deep15pf/internal/opt"
)

// Response carries the post-update model state back to a group root.
type Response struct {
	Weights   [][]float32 // fresh copy, one slice per layer parameter
	Clock     int64       // server update counter after this update
	Staleness int         // updates applied since this group's last read
}

// PushResult is the streamed path's response metadata; the weights travel
// through the caller's buffers instead.
type PushResult struct {
	Clock     int64
	Staleness int
	FirstPush bool // the group had never read this server before pushing
}

// WireStats accounts the bytes a real interconnect would move for the PS
// traffic: encoded gradient payloads inbound, fp32 model payloads outbound.
type WireStats struct {
	GradBytes   int64
	WeightBytes int64
	Pushes      int64
}

// Server owns one layer's master parameters and the solver state for them.
type Server struct {
	LayerID int

	mu         sync.Mutex
	params     []*nn.Param // master storage (decoupled from any replica)
	totalElems int
	solver     opt.Solver
	clock      int64
	staleness  map[int]int64 // histogram: staleness value → count
	perGroup   map[int]int64 // groupID → clock at last read
	seen       map[int]bool  // groups with at least one read (first-push accounting)
	wire       WireStats
}

// NewServer builds the server for one layer, copying the initial parameter
// values from template and cloning fresh solver state.
func NewServer(layerID int, template []*nn.Param, solver opt.Solver) *Server {
	master := make([]*nn.Param, len(template))
	total := 0
	for i, p := range template {
		master[i] = &nn.Param{
			Name: p.Name,
			W:    p.W.Clone(),
			Grad: p.Grad.Clone(),
		}
		master[i].Grad.Zero()
		total += p.W.Len()
	}
	return &Server{
		LayerID:    layerID,
		params:     master,
		totalElems: total,
		solver:     solver.Clone(),
		staleness:  make(map[int]int64),
		perGroup:   make(map[int]int64),
		seen:       make(map[int]bool),
	}
}

// Fetch returns the current model without updating (a group's initial
// read). It records the read clock for staleness accounting.
func (s *Server) Fetch(groupID int) Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.perGroup[groupID] = s.clock
	s.seen[groupID] = true
	// The initial model pull crosses the same wire as a push's return.
	s.wire.WeightBytes += 4 * int64(s.totalElems)
	return Response{Weights: s.copyWeightsLocked(), Clock: s.clock}
}

// accountLocked advances the clock and staleness books for one update from
// groupID and returns the staleness metadata. A group's first-ever push
// with no prior read has no read-to-write window to measure: it is
// reported as first (PushResult.FirstPush), not counted in the staleness
// histogram, so the histogram only ever aggregates genuine read→write
// intervals (previously such pushes landed in whatever low bucket the
// zero-value read clock implied).
func (s *Server) accountLocked(groupID int) (stale int, first bool) {
	stale = int(s.clock - s.perGroup[groupID])
	first = !s.seen[groupID]
	if first {
		s.seen[groupID] = true
	} else {
		s.staleness[stale]++
	}
	s.clock++
	s.perGroup[groupID] = s.clock
	return stale, first
}

// Update applies the group's layer gradient to the master model ("the PS
// applies the updates to the model in the order they are received, and
// sends back the updated model", §II-B2). grads must be positioned like
// the template params.
func (s *Server) Update(groupID int, grads [][]float32) Response {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(grads) != len(s.params) {
		panic(fmt.Sprintf("ps: layer %d got %d grad blobs, want %d", s.LayerID, len(grads), len(s.params)))
	}
	for i, g := range grads {
		if len(g) != s.params[i].Grad.Len() {
			panic(fmt.Sprintf("ps: layer %d param %d size %d, want %d", s.LayerID, i, len(g), s.params[i].Grad.Len()))
		}
		copy(s.params[i].Grad.Data, g)
	}
	stale, _ := s.accountLocked(groupID)
	s.solver.Step(s.params)
	s.wire.GradBytes += 4 * int64(s.totalElems)
	s.wire.WeightBytes += 4 * int64(s.totalElems)
	s.wire.Pushes++
	return Response{
		Weights:   s.copyWeightsLocked(),
		Clock:     s.clock,
		Staleness: stale,
	}
}

// PushWires is the streamed, allocation-free update path: wires carries one
// codec-encoded blob per layer parameter; the decoded gradients drive the
// shard solvers, and the fresh weights are written into weightsOut (one
// caller-owned slice per parameter, full length; nil skips the model
// return). The codec is the caller's — the server only decodes through it —
// so fp32 pushes reproduce Update bit for bit.
func (s *Server) PushWires(groupID int, codec comm.Codec, wires []*comm.Wire, weightsOut [][]float32) PushResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(wires) != len(s.params) {
		panic(fmt.Sprintf("ps: layer %d got %d wires, want %d", s.LayerID, len(wires), len(s.params)))
	}
	var pushed int64
	for i, w := range wires {
		if w.N != s.params[i].Grad.Len() {
			panic(fmt.Sprintf("ps: layer %d wire %d carries %d elems, want %d", s.LayerID, i, w.N, s.params[i].Grad.Len()))
		}
		pushed += w.Bytes()
	}
	for i, w := range wires {
		codec.Decode(w, s.params[i].Grad.Data)
	}
	stale, first := s.accountLocked(groupID)
	s.solver.Step(s.params)
	s.wire.GradBytes += pushed
	s.wire.Pushes++
	if weightsOut != nil {
		if len(weightsOut) != len(s.params) {
			panic(fmt.Sprintf("ps: layer %d got %d weight buffers, want %d", s.LayerID, len(weightsOut), len(s.params)))
		}
		for i, p := range s.params {
			if len(weightsOut[i]) != p.W.Len() {
				panic(fmt.Sprintf("ps: layer %d weight buffer %d size %d, want %d", s.LayerID, i, len(weightsOut[i]), p.W.Len()))
			}
			copy(weightsOut[i], p.W.Data)
		}
		s.wire.WeightBytes += 4 * int64(s.totalElems)
	}
	return PushResult{Clock: s.clock, Staleness: stale, FirstPush: first}
}

// Weights returns a copy of the current master parameters.
func (s *Server) Weights() [][]float32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.copyWeightsLocked()
}

func (s *Server) copyWeightsLocked() [][]float32 {
	out := make([][]float32, len(s.params))
	for i, p := range s.params {
		out[i] = append([]float32(nil), p.W.Data...)
	}
	return out
}

// SnapshotInto copies the master parameters into weightsOut (one
// caller-owned, full-length slice per parameter) and captures the solver
// state into state — the checkpointer's staging read. The server lock is
// held for the duration, so the snapshot is a consistent point between
// updates for this layer; warm staging touches no allocator (the caller
// recycles weightsOut and state across snapshots). A solver that keeps no
// exportable state captures as an empty State carrying only the algorithm
// name.
func (s *Server) SnapshotInto(weightsOut [][]float32, state *opt.State) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(weightsOut) != len(s.params) {
		panic(fmt.Sprintf("ps: layer %d snapshot got %d weight buffers, want %d", s.LayerID, len(weightsOut), len(s.params)))
	}
	for i, p := range s.params {
		if len(weightsOut[i]) != p.W.Len() {
			panic(fmt.Sprintf("ps: layer %d snapshot buffer %d size %d, want %d", s.LayerID, i, len(weightsOut[i]), p.W.Len()))
		}
		copy(weightsOut[i], p.W.Data)
	}
	if !opt.CaptureState(s.solver, state, s.params) {
		*state = opt.State{Algo: s.solver.Name()}
	}
}

// RestoreSnapshot installs checkpointed master weights and solver state —
// the inverse of SnapshotInto, for resuming a training run. A state with no
// slots restores only the weights (the fallback for stateless solvers).
func (s *Server) RestoreSnapshot(weights [][]float32, state *opt.State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(weights) != len(s.params) {
		return fmt.Errorf("ps: layer %d restore got %d weight blobs, want %d", s.LayerID, len(weights), len(s.params))
	}
	for i, p := range s.params {
		if len(weights[i]) != p.W.Len() {
			return fmt.Errorf("ps: layer %d restore blob %d (%s) has %d elements, want %d",
				s.LayerID, i, p.Name, len(weights[i]), p.W.Len())
		}
	}
	if len(state.Slots) > 0 {
		if err := opt.RestoreState(s.solver, s.params, state); err != nil {
			return fmt.Errorf("ps: layer %d: %w", s.LayerID, err)
		}
	}
	for i, p := range s.params {
		copy(p.W.Data, weights[i])
	}
	return nil
}

// StalenessHistogram returns a copy of the staleness counts.
func (s *Server) StalenessHistogram() map[int]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]int64, len(s.staleness))
	for k, v := range s.staleness {
		out[k] = v
	}
	return out
}

// Fleet is the full set of per-layer servers for one network — the paper's
// Fig 4 arrangement ("we assign a dedicated parameter server to each
// trainable layer of the network").
type Fleet struct {
	Servers []*Server
}

// NewFleet creates one server per trainable layer. layers must each own at
// least one parameter; solver is cloned per server so solver state is
// layer-local.
func NewFleet(layers []nn.Layer, solver opt.Solver) *Fleet {
	f := &Fleet{}
	for i, l := range layers {
		params := l.Params()
		if len(params) == 0 {
			panic(fmt.Sprintf("ps: layer %d (%s) has no parameters", i, l.Name()))
		}
		f.Servers = append(f.Servers, NewServer(i, params, solver))
	}
	return f
}

// Size returns the number of parameter servers (6 for the paper's HEP
// network, 14 for climate).
func (f *Fleet) Size() int { return len(f.Servers) }

// FetchAll reads every layer's model for a group (initial synchronisation).
func (f *Fleet) FetchAll(groupID int) []Response {
	out := make([]Response, len(f.Servers))
	for i, s := range f.Servers {
		out[i] = s.Fetch(groupID)
	}
	return out
}

// UpdateAll pushes one gradient set (grads[layer][param]) and returns the
// per-layer responses. Layers are exchanged concurrently — each with its
// own dedicated server — mirroring the paper's parallel per-layer PS
// traffic.
func (f *Fleet) UpdateAll(groupID int, grads [][][]float32) []Response {
	if len(grads) != len(f.Servers) {
		panic(fmt.Sprintf("ps: %d gradient sets for %d servers", len(grads), len(f.Servers)))
	}
	out := make([]Response, len(f.Servers))
	var wg sync.WaitGroup
	for i := range f.Servers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = f.Servers[i].Update(groupID, grads[i])
		}(i)
	}
	wg.Wait()
	return out
}

// PushWires forwards one layer's encoded push to its server — the streamed
// entry point the overlapped trainer drives from its per-layer pushers.
func (f *Fleet) PushWires(groupID, layer int, codec comm.Codec, wires []*comm.Wire, weightsOut [][]float32) PushResult {
	return f.Servers[layer].PushWires(groupID, codec, wires, weightsOut)
}

// SnapshotInto stages every server's weights and solver state
// (weights[layer][param], states[layer] of length one — the checkpoint
// format's per-layer state list). Servers are locked one at a time, so concurrent groups keep exchanging other layers while the
// snapshot walks the fleet; on asynchronous runs the snapshot is therefore
// per-layer consistent, not global — exactly the consistency an
// asynchronous trainer has anyway. Deterministic (single-group) runs
// snapshot at iteration boundaries where no push is in flight, which is
// what makes their resume bit-exact.
func (f *Fleet) SnapshotInto(weights [][][]float32, states [][]opt.State) {
	if len(weights) != len(f.Servers) || len(states) != len(f.Servers) {
		panic(fmt.Sprintf("ps: fleet snapshot got %d/%d buffers for %d servers", len(weights), len(states), len(f.Servers)))
	}
	for i, s := range f.Servers {
		if len(states[i]) != 1 {
			panic(fmt.Sprintf("ps: layer %d snapshot got %d state buffers, want 1", i, len(states[i])))
		}
		s.SnapshotInto(weights[i], &states[i][0])
	}
}

// RestoreSnapshot installs a staged fleet snapshot (the inverse of
// SnapshotInto) before any group starts training. Each layer must carry
// exactly one solver state.
func (f *Fleet) RestoreSnapshot(weights [][][]float32, states [][]opt.State) error {
	if len(weights) != len(f.Servers) || len(states) != len(f.Servers) {
		return fmt.Errorf("ps: fleet restore got %d/%d buffers for %d servers", len(weights), len(states), len(f.Servers))
	}
	for i, s := range f.Servers {
		if len(states[i]) != 1 {
			return fmt.Errorf("ps: layer %d restore got %d solver states, want 1", i, len(states[i]))
		}
		if err := s.RestoreSnapshot(weights[i], &states[i][0]); err != nil {
			return err
		}
	}
	return nil
}

// WireStats sums the per-server wire accounting.
func (f *Fleet) WireStats() WireStats {
	var total WireStats
	for _, s := range f.Servers {
		s.mu.Lock()
		total.GradBytes += s.wire.GradBytes
		total.WeightBytes += s.wire.WeightBytes
		total.Pushes += s.wire.Pushes
		s.mu.Unlock()
	}
	return total
}

// MeanStaleness aggregates the staleness histograms across servers.
func (f *Fleet) MeanStaleness() float64 {
	var sum, n float64
	for _, s := range f.Servers {
		for stale, count := range s.StalenessHistogram() {
			sum += float64(stale) * float64(count)
			n += float64(count)
		}
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

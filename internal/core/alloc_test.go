package core

// White-box gate for the overlapped hybrid worker's steady state: once the
// plans, wires, handle slots and parameter-server buffers are warm, a full
// iteration — streamed backward, async all-reduce, int8 encode, PS push,
// model broadcast — must not touch the allocator. Codec scratch lives in
// reused Wire buffers, async handles in the worker's preallocated table and
// the comm free list, activations and gradients in the replica's arena.

import (
	"testing"

	"deep15pf/internal/comm"
	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/opt"
	"deep15pf/internal/ps"
	"deep15pf/internal/tensor"
)

// allocProblem is a minimal in-package Problem (the hep adapter lives above
// core in the import graph, so the white-box test brings its own).
type allocProblem struct {
	data   *tensor.Tensor // [n, 1, 8, 8]
	labels []int
}

func newAllocProblem(n int) *allocProblem {
	rng := tensor.NewRNG(3)
	data := tensor.New(n, 1, 8, 8)
	rng.FillNorm(data, 0, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % 2
	}
	return &allocProblem{data: data, labels: labels}
}

func (p *allocProblem) NewReplica() *Replica { return NewReplica(p.newWorkload()) }

// newWorkload builds the problem's hook: the Classifier hep and astro train
// through, so the gates below run the real replica over a real hook.
func (p *allocProblem) newWorkload() *Classifier {
	rng := tensor.NewRNG(7)
	net := nn.NewNetwork("alloc", 1, 8, 8)
	net.Add(
		nn.NewConv2D("conv1", 1, 4, 3, 1, 1, rng),
		nn.NewReLU("relu"),
		nn.NewGlobalAvgPool("gap"),
		nn.NewDense("fc", 4, 2, rng),
	)
	return NewClassifier(net, p.data, p.labels, nil, nil)
}

func (p *allocProblem) NewBatchSource(seed uint64) BatchSource { return &allocSource{n: len(p.labels)} }

type allocSource struct{ n, at int }

func (s *allocSource) Next(size int) []int {
	idx := make([]int, size)
	for i := range idx {
		idx[i] = (s.at + i) % s.n
	}
	s.at += size
	return idx
}

// stageRepeats starts rep's prefetcher the way the trainers do, over more
// copies of idx than a gate below iterates; StopIngest runs at cleanup.
func stageRepeats(t *testing.T, rep *Replica, idx []int) {
	seq := make([][]int, 64)
	for i := range seq {
		seq[i] = idx
	}
	startIngest(rep, seq, 0, 1)
	t.Cleanup(rep.StopIngest)
}

func TestOverlappedWorkerSteadyStateAllocFree(t *testing.T) {
	p := newAllocProblem(32)
	rep := p.NewReplica()
	fleet := ps.NewFleet(rep.TrainableLayers(), opt.NewSGD(0.01, 0.9))
	group := comm.NewGroup(1)
	gw := newGroupWorker(0, group, rep, nil)
	gw.ex = newExchanger(fleet, 0, gw.layers, gw.handles, "int8", 1)
	defer gw.ex.close()

	fleet.FetchAll(0)
	idx := []int{0, 1, 2, 3}
	stageRepeats(t, rep, idx)
	iterate := func() {
		rep.ZeroGrad()
		loss := gw.compute(idx)
		all := group.GatherInto(0, 0, loss, gw.lossBuf)
		if len(all) != 1 {
			t.Fatal("gather lost the loss")
		}
		gw.ex.await()
		gw.broadcastWeights()
	}
	// Warm: plan compile, wire buffer growth, collective free list, solver
	// state on the servers.
	for i := 0; i < 3; i++ {
		iterate()
	}
	if n := testing.AllocsPerRun(30, iterate); n != 0 {
		t.Fatalf("overlapped worker steady state allocates %.1f per iteration; "+
			"codec scratch and async-handle buffers must come from preallocated storage", n)
	}
}

// TestTracedWorkerSteadyStateAllocFree: the overlapped steady state with a
// live trace lane attached — span recording (SetIter, Begin/End around
// compute, comm wait, solver apply) must not reintroduce allocations. This
// is the acceptance gate for the tracer's zero-alloc-on-hot-path contract
// at the trainer level (internal/obs gates the primitives themselves).
func TestTracedWorkerSteadyStateAllocFree(t *testing.T) {
	p := newAllocProblem(32)
	rep := p.NewReplica()
	fleet := ps.NewFleet(rep.TrainableLayers(), opt.NewSGD(0.01, 0.9))
	group := comm.NewGroup(1)
	gw := newGroupWorker(0, group, rep, obs.NewTracer(0).Lane("w0"))
	gw.ex = newExchanger(fleet, 0, gw.layers, gw.handles, "int8", 1)
	defer gw.ex.close()

	fleet.FetchAll(0)
	solver := opt.NewSGD(0.01, 0.9)
	idx := []int{0, 1, 2, 3}
	stageRepeats(t, rep, idx)
	it := 0
	iterate := func() {
		gw.lane.SetIter(it)
		it++
		rep.ZeroGrad()
		gw.compute(idx)
		group.GatherInto(0, 0, 0, gw.lossBuf)
		gw.lane.Begin(obs.PhaseCommWait)
		gw.ex.await()
		gw.lane.End(obs.PhaseCommWait)
		gw.lane.Begin(obs.PhaseOptApply)
		for _, params := range gw.lparams {
			solver.Step(params)
		}
		gw.lane.End(obs.PhaseOptApply)
		gw.broadcastWeights()
	}
	for i := 0; i < 3; i++ {
		iterate()
	}
	if n := testing.AllocsPerRun(30, iterate); n != 0 {
		t.Fatalf("traced worker steady state allocates %.1f per iteration; "+
			"span recording must stay on preallocated lane storage", n)
	}
}

// TestCheckpointStagingAllocFree gates the compute-thread cost of an async
// snapshot: once staging buffers and solver-state slots are warm, staging
// a checkpoint — clone weights, capture solver state, record cursors — is
// allocation-free. (The background flush itself pays a bounded handful of
// file-I/O allocations per snapshot, off the training goroutine; the
// training loop only ever sees the staging copy measured here.)
func TestCheckpointStagingAllocFree(t *testing.T) {
	p := newAllocProblem(32)
	rep := p.NewReplica()
	layers := rep.TrainableLayers()
	cfg := Config{Groups: 1, WorkersPerGroup: 1, GroupBatch: 4, Iterations: 1,
		Solver: opt.NewSGD(0.01, 0.9), Seed: 1,
		Checkpoint: CheckpointConfig{Dir: t.TempDir(), Every: 1, Async: true}}
	cfg.validate()
	ck := newCheckpointer(cfg, layers, nil)
	params := flatParams(layers)
	solver := cfg.Solver.Clone()
	rep.ZeroGrad()
	rep.ComputeGradients([]int{0, 1, 2, 3})
	solver.Step(params) // materialise solver state
	s := ck.writer.Begin()
	stage := func() {
		s.Step = 1
		s.StageWeights(params)
		opt.CaptureState(solver, s.Solver, params)
	}
	stage() // warm: sizes the state slots
	if n := testing.AllocsPerRun(30, stage); n != 0 {
		t.Fatalf("warm sync-mode checkpoint staging allocates %.1f per snapshot", n)
	}
	ck.writer.Commit(s, 0)
	if st := ck.close(); st.Snapshots != 1 {
		t.Fatalf("staged snapshot was not written: %+v", st)
	}
}

// TestFleetCheckpointStagingAllocFree is the same gate for the PS-backed
// trainers: staging fleet masters, per-layer solver state, group cursors
// and per-group replica views all recycle.
func TestFleetCheckpointStagingAllocFree(t *testing.T) {
	p := newAllocProblem(32)
	rep := p.NewReplica()
	layers := rep.TrainableLayers()
	fleet := ps.NewFleet(layers, opt.NewSGD(0.01, 0.9))
	cfg := Config{Groups: 1, WorkersPerGroup: 1, GroupBatch: 4, Iterations: 1,
		Solver: opt.NewSGD(0.01, 0.9), Seed: 1,
		Checkpoint: CheckpointConfig{Dir: t.TempDir(), Every: 1, Async: true}}
	cfg.validate()
	ck := newCheckpointer(cfg, layers, fleet)
	// Materialise server-side solver state with one real exchange.
	rep.ZeroGrad()
	rep.ComputeGradients([]int{0, 1, 2, 3})
	grads := make([][][]float32, len(layers))
	for i, l := range layers {
		for _, prm := range l.Params() {
			grads[i] = append(grads[i], prm.Grad.Data)
		}
	}
	fleet.UpdateAll(0, grads)
	iters := []int{3}
	groupParams := [][]*nn.Param{flatParams(layers)}
	s := ck.writer.Begin()
	stage := func() {
		s.Step = 1
		ck.fleet.SnapshotInto(ck.views[s], s.Servers)
		s.GroupIters = append(s.GroupIters[:0], iters...)
		s.StageGroupWeights(groupParams)
	}
	stage() // warm
	if n := testing.AllocsPerRun(30, stage); n != 0 {
		t.Fatalf("warm fleet-mode checkpoint staging allocates %.1f per snapshot", n)
	}
	ck.writer.Commit(s, 0)
	if st := ck.close(); st.Snapshots != 1 {
		t.Fatalf("staged snapshot was not written: %+v", st)
	}
}

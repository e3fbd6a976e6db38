package ps

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"deep15pf/internal/comm"
	"deep15pf/internal/nn"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

func layerParams(vals ...float32) []*nn.Param {
	w := tensor.FromSlice(append([]float32(nil), vals...), len(vals))
	return []*nn.Param{{Name: "w", W: w, Grad: tensor.New(len(vals))}}
}

func TestServerCopiesInitialParams(t *testing.T) {
	tmpl := layerParams(1, 2)
	s := NewServer(0, tmpl, opt.NewSGD(0.1, 0))
	tmpl[0].W.Data[0] = 99 // mutating the template must not affect the master
	w := s.Weights()
	if w[0][0] != 1 || w[0][1] != 2 {
		t.Fatalf("master weights %v", w)
	}
}

func TestUpdateAppliesSolver(t *testing.T) {
	s := NewServer(0, layerParams(1), opt.NewSGD(0.5, 0))
	resp := s.Update(0, [][]float32{{2}})
	// w = 1 − 0.5·2 = 0.
	if resp.Weights[0][0] != 0 {
		t.Fatalf("weights after update = %v", resp.Weights)
	}
	if resp.Clock != 1 {
		t.Fatalf("clock = %d", resp.Clock)
	}
}

func TestStalenessSingleGroupIsZero(t *testing.T) {
	s := NewServer(0, layerParams(0), opt.NewSGD(0.1, 0))
	s.Fetch(0)
	for i := 0; i < 5; i++ {
		resp := s.Update(0, [][]float32{{1}})
		if resp.Staleness != 0 {
			t.Fatalf("single group must never be stale, got %d", resp.Staleness)
		}
	}
}

func TestStalenessAlternatingGroups(t *testing.T) {
	// Two groups alternating perfectly: after warmup each sees exactly
	// one intervening update → staleness 1 (= G−1).
	s := NewServer(0, layerParams(0), opt.NewSGD(0.1, 0))
	s.Fetch(0)
	s.Fetch(1)
	s.Update(0, [][]float32{{1}}) // group 1 hasn't read since → its next update is stale
	for i := 0; i < 6; i++ {
		g := i % 2
		resp := s.Update(1-g, [][]float32{{1}})
		if resp.Staleness != 1 {
			t.Fatalf("alternating groups: staleness %d, want 1", resp.Staleness)
		}
	}
	hist := s.StalenessHistogram()
	if hist[1] != 6 {
		t.Fatalf("histogram %v", hist)
	}
}

func TestUpdatesSerializeUnderConcurrency(t *testing.T) {
	// Many concurrent updates with SGD lr=1 and grad −1 each add exactly
	// +1: the final weight equals the update count iff updates serialize.
	s := NewServer(0, layerParams(0), opt.NewSGD(1, 0))
	const n = 200
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s.Update(g%4, [][]float32{{-1}})
		}(i)
	}
	wg.Wait()
	if w := s.Weights()[0][0]; w != n {
		t.Fatalf("lost updates: w = %v, want %d", w, n)
	}
	if s.Clock() != n {
		t.Fatalf("clock = %d", s.Clock())
	}
}

func TestResponseWeightsAreCopies(t *testing.T) {
	s := NewServer(0, layerParams(5), opt.NewSGD(0.1, 0))
	resp := s.Fetch(0)
	resp.Weights[0][0] = -777
	if s.Weights()[0][0] != 5 {
		t.Fatal("response must not alias master storage")
	}
}

func TestUpdateValidation(t *testing.T) {
	s := NewServer(0, layerParams(1, 2), opt.NewSGD(0.1, 0))
	mustPanic := func(f func()) {
		defer func() { _ = recover() }()
		f()
		t.Fatal("expected panic")
	}
	mustPanic(func() { s.Update(0, [][]float32{{1}, {2}}) }) // wrong blob count
	mustPanic(func() { s.Update(0, [][]float32{{1}}) })      // wrong blob size
}

func buildTinyNet(seed uint64) *nn.Network {
	rng := tensor.NewRNG(seed)
	n := nn.NewNetwork("t", 1, 4, 4)
	n.Add(
		nn.NewConv2D("conv", 1, 2, 3, 1, 1, rng),
		nn.NewReLU("relu"),
		nn.NewGlobalAvgPool("gap"),
		nn.NewDense("fc", 2, 2, rng),
	)
	return n
}

func TestFleetOneServerPerTrainableLayer(t *testing.T) {
	net := buildTinyNet(1)
	f := NewFleet(net.TrainableLayers(), opt.NewSGD(0.1, 0))
	if f.Size() != 2 {
		t.Fatalf("fleet size = %d, want 2", f.Size())
	}
}

func TestFleetUpdateAllAndStaleness(t *testing.T) {
	net := buildTinyNet(2)
	f := NewFleet(net.TrainableLayers(), opt.NewSGD(0.1, 0))
	f.FetchAll(0)
	// Build zero gradients shaped like the layers.
	grads := make([][][]float32, f.Size())
	for i, l := range net.TrainableLayers() {
		for _, p := range l.Params() {
			grads[i] = append(grads[i], make([]float32, p.NumEl()))
		}
	}
	resps := f.UpdateAll(0, grads)
	if len(resps) != f.Size() {
		t.Fatal("response count")
	}
	for _, r := range resps {
		if r.Staleness != 0 {
			t.Fatalf("zero-gradient single group staleness %d", r.Staleness)
		}
	}
	if f.MeanStaleness() != 0 {
		t.Fatalf("mean staleness %v", f.MeanStaleness())
	}
}

func TestFleetMeanStalenessTracksGroups(t *testing.T) {
	// G groups in strict rotation converge to staleness G−1 — the
	// asynchrony level the hybrid design trades against hardware
	// efficiency (§II-B2a).
	net := buildTinyNet(3)
	f := NewFleet(net.TrainableLayers(), opt.NewSGD(0.01, 0))
	const groups = 4
	grads := make([][][]float32, f.Size())
	for i, l := range net.TrainableLayers() {
		for _, p := range l.Params() {
			grads[i] = append(grads[i], make([]float32, p.NumEl()))
		}
	}
	for g := 0; g < groups; g++ {
		f.FetchAll(g)
	}
	const rounds = 10
	for r := 0; r < rounds; r++ {
		for g := 0; g < groups; g++ {
			f.UpdateAll(g, grads)
		}
	}
	mean := f.MeanStaleness()
	// Early updates are less stale; the tail is exactly G−1.
	if mean < 2 || mean > float64(groups-1)+1e-9 {
		t.Fatalf("mean staleness %v, want near %d", mean, groups-1)
	}
	// The final rotation must be exactly G−1 stale.
	hist := f.Servers[0].StalenessHistogram()
	if hist[groups-1] == 0 {
		t.Fatalf("no updates at staleness %d: %v", groups-1, hist)
	}
}

func TestFleetRequiresParameterisedLayers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFleet([]nn.Layer{nn.NewReLU("relu")}, opt.NewSGD(0.1, 0))
}

func TestAdamStateLivesOnServer(t *testing.T) {
	// A +1 gradient followed by a −1 gradient: with persistent Adam
	// moment state the second step is heavily damped (the first moment
	// still mostly points the other way); a stateless implementation
	// would take a full-size lr step. This proves solver state is
	// server-side, as the sharded PS design requires.
	s := NewServer(0, layerParams(0), opt.NewAdam(0.1))
	r1 := s.Update(0, [][]float32{{1}})
	w1 := float64(r1.Weights[0][0])
	if math.Abs(math.Abs(w1)-0.1) > 1e-3 {
		t.Fatalf("first Adam step %v, want ~lr", w1)
	}
	r2 := s.Update(0, [][]float32{{-1}})
	step2 := math.Abs(float64(r2.Weights[0][0]) - w1)
	if step2 > 0.05 {
		t.Fatalf("second step %v not damped — state not persisted server-side", step2)
	}
}

// TestFirstPushNotInStalenessHistogram is the regression test for the
// first-push accounting fix: a push from a group that never read the server
// has no read→write window, so it must land in the FirstPushes tally — not
// in whatever low histogram bucket the zero-value read clock implies.
func TestFirstPushNotInStalenessHistogram(t *testing.T) {
	s := NewServer(0, layerParams(0), opt.NewSGD(0.1, 0))
	// Group 0 reads, then applies three updates.
	s.Fetch(0)
	for i := 0; i < 3; i++ {
		s.Update(0, [][]float32{{1}})
	}
	// Group 1 pushes cold: previously this polluted bucket 3 (clock −
	// zero-value read clock); bucket 0 in the fresh-server case.
	resp := s.Update(1, [][]float32{{1}})
	if resp.Staleness != 3 {
		t.Fatalf("cold push staleness %d, want 3 (informative)", resp.Staleness)
	}
	hist := s.StalenessHistogram()
	var total int64
	for _, c := range hist {
		total += c
	}
	if total != 3 {
		t.Fatalf("histogram holds %d entries, want only group 0's 3 reads: %v", total, hist)
	}
	if s.FirstPushes() != 1 {
		t.Fatalf("first pushes = %d, want 1", s.FirstPushes())
	}
	// Once warm, group 1's next push is histogrammed normally (staleness 0:
	// its write doubled as its read).
	s.Update(1, [][]float32{{1}})
	if got := s.StalenessHistogram()[0]; got != 4 {
		t.Fatalf("warm push not histogrammed: %v", s.StalenessHistogram())
	}
	// A fresh-server cold push must not create a bucket-0 entry either.
	s2 := NewServer(0, layerParams(0), opt.NewSGD(0.1, 0))
	s2.Update(7, [][]float32{{1}})
	if len(s2.StalenessHistogram()) != 0 {
		t.Fatalf("fresh-server cold push entered histogram: %v", s2.StalenessHistogram())
	}
	if s2.FirstPushes() != 1 {
		t.Fatal("fresh-server cold push not tallied")
	}
}

func randParams(seed uint64, sizes ...int) []*nn.Param {
	rng := tensor.NewRNG(seed)
	var out []*nn.Param
	for i, n := range sizes {
		w := tensor.New(n)
		rng.FillNorm(w, 0, 1)
		out = append(out, &nn.Param{Name: fmt.Sprintf("p%d", i), W: w, Grad: tensor.New(n)})
	}
	return out
}

// TestPushWiresFp32MatchesUpdate: the streamed path through the identity
// codec must be bit-for-bit the legacy Update, with the weights landing in
// the caller's buffers.
func TestPushWiresFp32MatchesUpdate(t *testing.T) {
	sizes := []int{513, 17}
	legacy := NewServer(0, randParams(9, sizes...), opt.NewAdam(1e-2))
	streamed := NewServer(0, randParams(9, sizes...), opt.NewAdam(1e-2))
	codec, _ := comm.NewCodec("fp32", 0)
	wires := []*comm.Wire{{}, {}}
	weightsOut := [][]float32{make([]float32, sizes[0]), make([]float32, sizes[1])}
	rng := tensor.NewRNG(3)
	grads := [][]float32{make([]float32, sizes[0]), make([]float32, sizes[1])}
	legacy.Fetch(0)
	streamed.Fetch(0)
	for step := 0; step < 3; step++ {
		for i := range grads {
			for j := range grads[i] {
				grads[i][j] = float32(rng.Norm())
			}
			codec.Encode(wires[i], grads[i])
		}
		a := legacy.Update(0, grads)
		res := streamed.PushWires(0, codec, wires, weightsOut)
		if res.Clock != a.Clock || res.Staleness != a.Staleness || res.FirstPush {
			t.Fatalf("push metadata %+v vs legacy %+v", res, a)
		}
		for i := range weightsOut {
			for j := range weightsOut[i] {
				if weightsOut[i][j] != a.Weights[i][j] {
					t.Fatalf("step %d: streamed weight diverges at param %d elem %d", step, i, j)
				}
			}
		}
	}
}

// TestPushWiresInt8MatchesDecodedUpdate: an int8 push applies exactly the
// gradients the codec decodes, ragged last chunk included.
func TestPushWiresInt8MatchesDecodedUpdate(t *testing.T) {
	sizes := []int{2*comm.ChunkElems + 100}
	pushed := NewServer(0, randParams(21, sizes...), opt.NewSGD(0.1, 0))
	updated := NewServer(0, randParams(21, sizes...), opt.NewSGD(0.1, 0))
	codec, _ := comm.NewCodec("int8", 5)
	src := make([]float32, sizes[0])
	rng := tensor.NewRNG(6)
	for i := range src {
		src[i] = float32(rng.Norm())
	}
	w := &comm.Wire{}
	codec.Encode(w, src)
	decoded := make([]float32, sizes[0])
	codec.Decode(w, decoded)
	a := pushed.PushWires(0, codec, []*comm.Wire{w}, nil)
	b := updated.Update(0, [][]float32{decoded})
	if a.Clock != b.Clock {
		t.Fatal("clock mismatch")
	}
	wa := pushed.Weights()
	for j := range wa[0] {
		if wa[0][j] != b.Weights[0][j] {
			t.Fatalf("int8 push diverges from the decoded update at %d", j)
		}
	}
}

// TestWireStatsAccounting: grad bytes follow the codec's encoded size;
// weight bytes only accrue when the model is returned.
func TestWireStatsAccounting(t *testing.T) {
	n := comm.ChunkElems + 10
	f := NewFleet([]nn.Layer{nn.NewDense("fc", n/8, 8, tensor.NewRNG(1))}, opt.NewSGD(0.1, 0))
	elems := 0
	for _, p := range f.Servers[0].params {
		elems += p.W.Len()
	}
	codec, _ := comm.NewCodec("int8", 1)
	wires := make([]*comm.Wire, len(f.Servers[0].params))
	for i, p := range f.Servers[0].params {
		wires[i] = &comm.Wire{}
		codec.Encode(wires[i], p.Grad.Data)
	}
	var encoded int64
	for _, w := range wires {
		encoded += w.Bytes()
	}
	f.PushWires(0, 0, codec, wires, nil)
	st := f.WireStats()
	if st.GradBytes != encoded || st.WeightBytes != 0 || st.Pushes != 1 {
		t.Fatalf("wire stats %+v, want grad=%d weight=0 pushes=1", st, encoded)
	}
	if ratio := float64(4*elems) / float64(encoded); ratio < 3 {
		t.Fatalf("int8 push reduction %.2fx < 3x", ratio)
	}
}

// TestPushWiresSteadyStateDoesNotAllocate: the streamed exchange must be
// allocation-free once wires and weight buffers exist.
func TestPushWiresSteadyStateDoesNotAllocate(t *testing.T) {
	n0, n1 := 3*comm.ChunkElems, 40
	s := NewServer(0, randParams(13, n0, n1), opt.NewSGD(0.01, 0.9))
	codec, _ := comm.NewCodec("int8", 2)
	wires := []*comm.Wire{{}, {}}
	weightsOut := [][]float32{make([]float32, n0), make([]float32, n1)}
	grads := [][]float32{make([]float32, n0), make([]float32, n1)}
	rng := tensor.NewRNG(4)
	for i := range grads {
		for j := range grads[i] {
			grads[i][j] = float32(rng.Norm())
		}
	}
	s.Fetch(0)
	// Warm solver state and wire buffers.
	for k := 0; k < 3; k++ {
		for i := range grads {
			codec.Encode(wires[i], grads[i])
		}
		s.PushWires(0, codec, wires, weightsOut)
	}
	if n := testing.AllocsPerRun(20, func() {
		for i := range grads {
			codec.Encode(wires[i], grads[i])
		}
		s.PushWires(0, codec, wires, weightsOut)
	}); n != 0 {
		t.Fatalf("streamed push steady state allocates %.1f per push", n)
	}
}

// snapStaging allocates weight staging matched to a server's geometry.
func snapStaging(sizes []int) [][]float32 {
	weights := make([][]float32, len(sizes))
	for i, n := range sizes {
		weights[i] = make([]float32, n)
	}
	return weights
}

// TestServerSnapshotRestoreIsBitExact is the resume contract at the PS
// level: run K updates, snapshot, restore into a FRESH server (same
// template), continue both — identical weights bit for bit.
func TestServerSnapshotRestoreIsBitExact(t *testing.T) {
	sizes := []int{3*comm.ChunkElems + 11, 64}
	for _, solver := range []opt.Solver{opt.NewSGD(0.05, 0.9), opt.NewAdam(1e-3)} {
		orig := NewServer(0, randParams(42, sizes...), solver)
		grads := make([][]float32, len(sizes))
		for i, n := range sizes {
			grads[i] = make([]float32, n)
		}
		rng := tensor.NewRNG(7)
		draw := func() {
			for i := range grads {
				for j := range grads[i] {
					grads[i][j] = float32(rng.Norm())
				}
			}
		}
		for k := 0; k < 4; k++ {
			draw()
			orig.Update(0, grads)
		}
		weights := snapStaging(sizes)
		var state opt.State
		orig.SnapshotInto(weights, &state)

		fresh := NewServer(0, randParams(43, sizes...), solver.Clone())
		if err := fresh.RestoreSnapshot(weights, &state); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			draw()
			a := orig.Update(0, grads)
			// Replay the same draws on the restored server.
			b := fresh.Update(0, grads)
			for i := range a.Weights {
				for j := range a.Weights[i] {
					if a.Weights[i][j] != b.Weights[i][j] {
						t.Fatalf("%s step %d: restored server diverged at param %d elem %d",
							solver.Name(), k, i, j)
					}
				}
			}
		}
	}
}

// TestServerSnapshotRestoreValidation: wrong geometry must error (restore)
// or panic (snapshot staging bug), never silently misload.
func TestServerSnapshotRestoreValidation(t *testing.T) {
	s := NewServer(0, randParams(1, 8, 4), opt.NewAdam(1e-3))
	weights := snapStaging([]int{8, 4})
	var state opt.State
	s.SnapshotInto(weights, &state)

	bad := NewServer(0, randParams(1, 8, 5), opt.NewAdam(1e-3))
	if err := bad.RestoreSnapshot(weights, &state); err == nil {
		t.Fatal("size mismatch must error")
	}
	if err := s.RestoreSnapshot(weights[:1], &state); err == nil {
		t.Fatal("blob count mismatch must error")
	}
	wrongAlgo := NewServer(0, randParams(1, 8, 4), opt.NewSGD(0.1, 0.9))
	if err := wrongAlgo.RestoreSnapshot(weights, &state); err == nil {
		t.Fatal("solver algorithm mismatch must error")
	}
	// The fleet walk takes exactly one state per layer, the checkpoint
	// format's per-layer list.
	f := &Fleet{Servers: []*Server{s}}
	if err := f.RestoreSnapshot([][][]float32{weights}, [][]opt.State{{state, state}}); err == nil {
		t.Fatal("two states for one layer must error")
	}
}

// TestFleetSnapshotRestore: the fleet-level walk restores every layer.
func TestFleetSnapshotRestore(t *testing.T) {
	net := buildTinyNet(5)
	fleet := NewFleet(net.TrainableLayers(), opt.NewAdam(1e-3))
	grads := [][][]float32{}
	for _, s := range fleet.Servers {
		var g [][]float32
		for _, p := range s.params {
			g = append(g, make([]float32, p.W.Len()))
		}
		grads = append(grads, g)
	}
	rng := tensor.NewRNG(6)
	for k := 0; k < 3; k++ {
		for i := range grads {
			for j := range grads[i] {
				for e := range grads[i][j] {
					grads[i][j][e] = float32(rng.Norm())
				}
			}
		}
		fleet.UpdateAll(0, grads)
	}
	weights := make([][][]float32, fleet.Size())
	states := make([][]opt.State, fleet.Size())
	for i, s := range fleet.Servers {
		var sizes []int
		for _, p := range s.params {
			sizes = append(sizes, p.W.Len())
		}
		weights[i], states[i] = snapStaging(sizes), make([]opt.State, 1)
	}
	fleet.SnapshotInto(weights, states)

	net2 := buildTinyNet(9) // different init: restore must overwrite it
	fresh := NewFleet(net2.TrainableLayers(), opt.NewAdam(1e-3))
	if err := fresh.RestoreSnapshot(weights, states); err != nil {
		t.Fatal(err)
	}
	for i, s := range fleet.Servers {
		a, b := s.Weights(), fresh.Servers[i].Weights()
		for j := range a {
			for e := range a[j] {
				if a[j][e] != b[j][e] {
					t.Fatalf("layer %d param %d elem %d not restored", i, j, e)
				}
			}
		}
	}
}

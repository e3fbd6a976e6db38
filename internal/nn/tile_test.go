package nn

import (
	"fmt"
	"testing"

	"deep15pf/internal/tensor"
)

// hepSmallNet is hep.SmallConfig's topology (32×32, 16 filters, 4 conv
// units), built here because hep imports nn.
func hepSmallNet(rng *tensor.RNG) *Network {
	net := NewNetwork("hep-small", 3, 32, 32)
	inC := 3
	for u := 1; u <= 4; u++ {
		net.Add(NewConv2D(fmt.Sprintf("conv%d", u), inC, 16, 3, 1, 1, rng), NewReLU(fmt.Sprintf("relu%d", u)))
		if u < 4 {
			net.Add(NewMaxPool2D(fmt.Sprintf("pool%d", u), 2, 2))
		} else {
			net.Add(NewGlobalAvgPool("gap"))
		}
		inC = 16
	}
	return net.Add(NewDense("fc", 16, 2, rng))
}

// oneByOne runs x's samples one at a time through p, a plan of at most
// InferTile capacity, and returns the outputs side by side: what a tiled
// Forward must equal bit for bit.
func oneByOne(p lanePlan, x *tensor.Tensor, outPer int) *tensor.Tensor {
	n := x.Shape[0]
	per := x.Len() / n
	want := tensor.New(n, outPer)
	for s := 0; s < n; s++ {
		xs := tensor.FromSlice(x.Data[s*per:(s+1)*per], append([]int{1}, x.Shape[1:]...)...)
		copy(want.Data[s*outPer:], p.Forward(xs).Data)
	}
	return want
}

// tilingCase is one network at one precision: compile builds its inference
// plan at a capacity over an arena.
type tilingCase struct {
	name    string
	net     *Network
	compile func(capacity int, arena *tensor.Arena) lanePlan
}

// tilingCases are fp32 and calibrated int8 over the HEP classifier's layer
// kinds, and over a deconvolution whose output is a plane per sample rather
// than two logits.
func tilingCases() (cases []tilingCase) {
	for _, net := range []*Network{planTestNet(7), planTestDeconvNet(7)} {
		calib := CalibrateActivations(net, randBatch(tensor.NewRNG(5), 8, net.InShape))
		cases = append(cases,
			tilingCase{net.NetName + "/fp32", net, func(c int, a *tensor.Arena) lanePlan { return Compile(net, c, false, a) }},
			tilingCase{net.NetName + "/int8", net, func(c int, a *tensor.Arena) lanePlan { return CompileQuantized(net, c, calib, a) }})
	}
	return cases
}

// TestTiledForwardMatchesOneByOne is the tiling contract: an inference plan
// compiled above InferTile returns, at every batch size around the tile
// boundary and every worker count, exactly what the same samples give one
// at a time through a tile-capacity plan — tail tiles shorter than the
// tile, more tiles than lanes, fewer tiles than workers.
func TestTiledForwardMatchesOneByOne(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	rng := tensor.NewRNG(61)
	for _, tc := range tilingCases() {
		net, name := tc.net, tc.name
		outPer := shapeElems(net.OutShape())
		ref := tc.compile(InferTile, nil)
		for _, n := range []int{InferTile - 1, InferTile, InferTile + 1, 2*InferTile + 3, 256} {
			x := randBatch(rng, n, net.InShape)
			tensor.SetWorkers(1)
			want := oneByOne(ref, x, outPer)
			for _, workers := range []int{1, 2, 4} {
				tensor.SetWorkers(workers)
				p := tc.compile(256, nil)
				// A big batch first, so the short one reuses warm lanes.
				p.Forward(randBatch(rng, 200, net.InShape))
				got := p.Forward(x)
				requireBitwise(t, fmt.Sprintf("%s n=%d workers=%d", name, n, workers), got, want)
				if got.Shape[0] != n || got.Len() != n*outPer {
					t.Fatalf("%s n=%d: output shape %v", name, n, got.Shape)
				}
				p.Release()
			}
		}
		ref.Release()
	}
}

// TestTiledPlansAreTheOnesAboveTheTile pins which plans tile: inference
// plans, fp32 and int8, above InferTile, and nothing else — a training plan
// and a plan at the tile execute whole.
func TestTiledPlansAreTheOnesAboveTheTile(t *testing.T) {
	net := planTestNet(3)
	calib := CalibrateActivations(net, randBatch(tensor.NewRNG(5), 8, net.InShape))
	for _, tc := range []struct {
		name  string
		tiled bool
		want  bool
	}{
		{"inference above", Compile(net, InferTile+1, false, nil).tiles != nil, true},
		{"inference at", Compile(net, InferTile, false, nil).tiles != nil, false},
		{"training above", Compile(net, InferTile+1, true, nil).tiles != nil, false},
		{"int8 above", CompileQuantized(net, InferTile+1, calib, nil).tiles != nil, true},
		{"int8 at", CompileQuantized(net, InferTile, calib, nil).tiles != nil, false},
	} {
		if tc.tiled != tc.want {
			t.Errorf("%s the tile: tiled = %v, want %v", tc.name, tc.tiled, tc.want)
		}
	}
}

// TestTiledOutputLifetimeAndRelease: the output of a tiled Forward is one
// plan-owned slab that stays intact until the next Forward, and Release
// hands every lane's slabs and the output slab back to the arena.
func TestTiledOutputLifetimeAndRelease(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(2))
	rng := tensor.NewRNG(67)
	for _, tc := range tilingCases() {
		net, name := tc.net, tc.name
		arena := tensor.NewArena()
		p := tc.compile(128, arena)
		x := randBatch(rng, 100, net.InShape)
		got := p.Forward(x)
		keep := got.Clone()
		// Unrelated work on the same arena and the same network must not
		// reach into the plan's output.
		other := tc.compile(InferTile, arena)
		other.Forward(randBatch(rng, 5, net.InShape))
		other.Release()
		requireBitwise(t, name+" output after unrelated work", got, keep)
		requireBitwise(t, name+" repeat", p.Forward(x), keep)
		p.Release()
		if st := arena.Stats(); st.HeldFloats != st.TotalFloats || st.TotalFloats == 0 {
			t.Fatalf("%s: arena after Release holds %d of %d floats", name, st.HeldFloats, st.TotalFloats)
		}
	}
}

// TestTiledForwardAllocs is the allocation gate of the bulk path: a warm
// tiled Forward of 256 hep-small samples allocates nothing on one worker
// and, on two, only the one fork-join that dispatches the lanes (at most 8
// objects; before tiling, six per kernel-level fork) — no lane forks
// underneath.
func TestTiledForwardAllocs(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	net := hepSmallNet(tensor.NewRNG(43))
	net.ReleaseGradients()
	x := randBatch(tensor.NewRNG(47), 256, net.InShape)
	calib := CalibrateActivations(net, randBatch(tensor.NewRNG(5), 8, net.InShape))
	for _, tc := range []struct {
		name string
		p    lanePlan
	}{{"fp32", Compile(net, 256, false, nil)}, {"int8", CompileQuantized(net, 256, calib, nil)}} {
		for _, gate := range []struct {
			workers int
			max     float64
		}{{1, 0}, {2, 8}} {
			tensor.SetWorkers(gate.workers)
			tc.p.Forward(x) // warm: mints this worker count's lanes
			if got := testing.AllocsPerRun(5, func() { tc.p.Forward(x) }); got > gate.max {
				t.Errorf("%s: warm tiled Forward of 256 at %d workers allocates %v objects, want <= %v", tc.name, gate.workers, got, gate.max)
			}
		}
		tc.p.Release()
	}
}

package nn

import (
	"strings"
	"testing"

	"deep15pf/internal/tensor"
)

// freezeTestBackbone returns the layer names a transfer-learning run would
// freeze in planTestNet: the first conv block.
var freezeTestBackbone = []string{"c1", "r1", "p1"}

func TestFreezeFiltersTrainableLayers(t *testing.T) {
	net := planTestNet(7)
	net.Freeze(freezeTestBackbone...)

	if got := net.Frozen(); len(got) != 3 || got[0] != "c1" {
		t.Fatalf("Frozen() = %v, want [c1 r1 p1]", got)
	}
	tl := net.TrainableLayers()
	if len(tl) != 2 || tl[0].Name() != "c2" || tl[1].Name() != "fc" {
		names := make([]string, len(tl))
		for i, l := range tl {
			names[i] = l.Name()
		}
		t.Fatalf("TrainableLayers = %v, want [c2 fc]", names)
	}
	for _, p := range net.TrainableParams() {
		if strings.HasPrefix(p.Name, "c1.") {
			t.Fatalf("TrainableParams still holds frozen %s", p.Name)
		}
		if p.Grad == nil {
			t.Fatalf("trainable %s lost its gradient accumulator", p.Name)
		}
	}
	// Frozen params keep their weights but drop gradient accumulators.
	for _, p := range net.Params() {
		if strings.HasPrefix(p.Name, "c1.") && p.Grad != nil {
			t.Fatalf("frozen %s still owns a gradient accumulator", p.Name)
		}
	}
}

func TestFreezeUnknownNamePanics(t *testing.T) {
	net := planTestNet(7)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Freeze of an unknown layer must panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "no layer") {
			t.Fatalf("unhelpful panic: %v", r)
		}
	}()
	net.Freeze("nope")
}

func TestFreezeNonPrefixPanics(t *testing.T) {
	net := planTestNet(7)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("freezing a mid-stack layer under a trainable one must panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "prefix") {
			t.Fatalf("unhelpful panic: %v", r)
		}
	}()
	net.Freeze("c2") // c1 stays trainable before it
}

// TestFrozenForwardBitwiseIdentity is the trajectory gate: the frozen
// prefix of a training plan runs the eval datapath, which must produce
// bitwise-identical activations to the full train-mode forward — otherwise
// freezing would silently change the fine-tune trajectory.
func TestFrozenForwardBitwiseIdentity(t *testing.T) {
	ref := planTestNet(7)
	frozen := planTestNet(7)
	frozen.Freeze(freezeTestBackbone...)
	plan := Compile(frozen, 4, true, nil)

	rng := tensor.NewRNG(99)
	x := randBatch(rng, 4, ref.InShape)
	want := newRef(ref).Forward(x, true)
	requireBitwise(t, "frozen plan forward", plan.Forward(x), want)
}

// TestFrozenBackwardParity pins the backward contract from every angle:
// trainable gradients match the unfrozen run bitwise (through a plan and
// through refNet), frozen weights never move, and the plan and refNet
// agree on the boundary gradient of the frozen network.
func TestFrozenBackwardParity(t *testing.T) {
	ref := planTestNet(7)     // fully trainable, refNet
	direct := planTestNet(7)  // frozen, refNet
	planned := planTestNet(7) // frozen, planned
	pristine := planTestNet(7)
	direct.Freeze(freezeTestBackbone...)
	planned.Freeze(freezeTestBackbone...)

	rng := tensor.NewRNG(17)
	x := randBatch(rng, 4, ref.InShape)
	dout := tensor.New(append([]int{4}, ref.OutShape()...)...)
	rng.FillNorm(dout, 0, 1)

	refRun := newRef(ref)
	refRun.Forward(x, true)
	refRun.Backward(dout)

	directRun := newRef(direct)
	directRun.Forward(x, true)
	directDx := directRun.Backward(dout)

	plan := Compile(planned, 4, true, nil)
	plan.Forward(x)
	planDx := plan.Backward(dout)

	requireBitwise(t, "boundary grad", planDx, directDx)

	refTP := ref.TrainableParams()
	byName := make(map[string]*Param, len(refTP))
	for _, p := range refTP {
		byName[p.Name] = p
	}
	for _, net := range []*Network{direct, planned} {
		for _, p := range net.TrainableParams() {
			requireBitwise(t, "grad "+p.Name, p.Grad, byName[p.Name].Grad)
		}
	}
	// Frozen weights are bitwise-untouched by the whole train step.
	pp := pristine.Params()
	for i, p := range planned.Params() {
		if strings.HasPrefix(p.Name, "c1.") {
			requireBitwise(t, "frozen weight "+p.Name, p.W, pp[i].W)
		}
	}
}

// TestFrozenGradDoneIndices checks the streaming contract the overlapped
// trainer depends on: gradDone fires once per *trainable* layer, indexed in
// TrainableLayers order, deepest first — frozen layers never appear.
func TestFrozenGradDoneIndices(t *testing.T) {
	net := planTestNet(7)
	net.Freeze(freezeTestBackbone...)
	rng := tensor.NewRNG(23)
	x := randBatch(rng, 2, net.InShape)
	dout := tensor.New(append([]int{2}, net.OutShape()...)...)
	rng.FillNorm(dout, 0, 1)

	plan := Compile(net, 2, true, nil)
	plan.Forward(x)
	var got []int
	plan.BackwardStream(dout, func(i int) { got = append(got, i) })
	if len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Fatalf("gradDone order %v, want [1 0]", got)
	}
}

// TestFrozenTrainingPlanZeroAllocs keeps the 0-alloc warm gate on the
// fine-tune configuration.
func TestFrozenTrainingPlanZeroAllocs(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)
	net := planTestNet(13)
	net.Freeze(freezeTestBackbone...)
	plan := Compile(net, 4, true, nil)
	rng := tensor.NewRNG(37)
	x := randBatch(rng, 4, net.InShape)
	labels := []int{0, 1, 1, 0}
	grad := tensor.New(4, 2)
	iter := func() {
		logits := plan.Forward(x)
		SoftmaxCrossEntropyInto(logits, labels, grad)
		plan.Backward(grad)
	}
	iter() // warm
	if allocs := testing.AllocsPerRun(20, iter); allocs != 0 {
		t.Fatalf("warmed frozen training iteration allocates %v objects/op, want 0", allocs)
	}
}

// TestFrozenPlanSkipsGradientBuffers verifies freezing actually drops the
// training-only memory: prefix steps compile on the eval datapath with no
// input-gradient slab, no retained input and no backward scratch, while
// steps at and after the cut keep all of it.
func TestFrozenPlanSkipsGradientBuffers(t *testing.T) {
	net := planTestNet(25)
	net.Freeze(freezeTestBackbone...)
	plan := Compile(net, 4, true, nil)
	if plan.cut != 3 { // c1, r1, p1 are steps 0-2
		t.Fatalf("cut = %d, want 3", plan.cut)
	}
	for i := range plan.steps {
		s := &plan.steps[i]
		if i < plan.cut {
			if s.train || s.dxSlab != nil || s.st.Argmax != nil || s.st.Y != nil || s.st.X != nil {
				t.Fatalf("frozen step %d still carries training state", i)
			}
		} else if !s.train || s.dxSlab == nil {
			t.Fatalf("trainable step %d lost its training state", i)
		}
	}
}

func TestFullyFrozenTrainingPlanPanics(t *testing.T) {
	net := planTestNet(7)
	net.Freeze("c1", "c2", "fc")
	defer func() {
		if recover() == nil {
			t.Fatal("training plan over a fully frozen network must panic")
		}
	}()
	Compile(net, 2, true, nil)
}

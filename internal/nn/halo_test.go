package nn

import (
	"fmt"
	"math"
	"testing"

	"deep15pf/internal/tensor"
)

// fuzzConvNet is one network FuzzInferencePlanBitwise draws: a convolution
// of any geometry, optionally followed by a ReLU, by a 2×2/2 or 3×3/2
// max-pool and by a second unit (3×3/1/1 convolution and ReLU) that reads
// the first one's output — from its halo image when both fuse.
type fuzzConvNet struct {
	inC, outC, h, w, k, pad, stride int
	relu                            bool
	pool                            int // 0 none, else the window (stride 2)
	bias                            int // 0 +0, 1 −0, 2 drawn, 3 drawn with ±0 among them
	specialW, specialX, second      bool
	batch                           int
}

// fuzzMACs caps the multiply-adds of one plan's Forward: the batch shrinks
// until the draw fits, so that the scalar table's pass stays short.
const fuzzMACs = 48 << 20

// decodeFuzzNet maps raw fuzz bytes onto the ranges the property covers:
// 1–20 input and 1–40 output channels, 1–40 rows and columns, kernel 1–5,
// pad 0–2, stride 1–2, batch 1–70 (tiled above inferTile).
func decodeFuzzNet(inC, outC, h, w, k, pad, stride, opts, batch uint8) fuzzConvNet {
	g := fuzzConvNet{
		inC: 1 + int(inC)%20, outC: 1 + int(outC)%40,
		h: 1 + int(h)%40, w: 1 + int(w)%40,
		k: 1 + int(k)%5, pad: int(pad) % 3, stride: 1 + int(stride)%2,
		relu: opts&1 != 0, pool: []int{0, 2, 3, 0}[opts>>1&3], bias: int(opts >> 3 & 3),
		specialW: opts&32 != 0, specialX: opts&64 != 0, second: opts&128 != 0,
		batch: 1 + int(batch)%70,
	}
	g.h, g.w = max(g.h, g.k-2*g.pad), max(g.w, g.k-2*g.pad)
	oh, ow := tensor.ConvOut(g.h, g.k, g.stride, g.pad), tensor.ConvOut(g.w, g.k, g.stride, g.pad)
	if g.pool != 0 && (tensor.ConvOut(oh, g.pool, 2, 0) < 1 || tensor.ConvOut(ow, g.pool, 2, 0) < 1) {
		g.pool = 0
	}
	macs := g.outC * g.inC * g.k * g.k * oh * ow
	if g.second {
		if g.pool != 0 {
			oh, ow = tensor.ConvOut(oh, g.pool, 2, 0), tensor.ConvOut(ow, g.pool, 2, 0)
		}
		macs += g.outC * g.outC * 9 * oh * ow
	}
	g.batch = max(min(g.batch, fuzzMACs/macs), 1)
	return g
}

func (g fuzzConvNet) String() string {
	return fmt.Sprintf("in %d out %d %dx%d k %d pad %d stride %d relu %v pool %d bias %d specials %v/%v second %v batch %d",
		g.inC, g.outC, g.h, g.w, g.k, g.pad, g.stride, g.relu, g.pool, g.bias, g.specialW, g.specialX, g.second, g.batch)
}

// fuzzZero is a zero the compiler cannot fold into madeNaN's product.
var fuzzZero float32

// madeNaN is the NaN this machine makes of ∞·0. The NaN weights and inputs
// a draw plants carry its bits, so every NaN a chain can meet has the same
// payload: which of two NaNs an add keeps is not part of the kernels'
// contract (the Go bodies leave the operand order to the compiler, and a
// fuzzing build compiles them differently).
var madeNaN = float32(math.Inf(1)) * fuzzZero

// build draws the network's parameters and an input batch from rng.
func (g fuzzConvNet) build(rng *tensor.RNG) (*Network, *tensor.Tensor) {
	negZero := float32(math.Copysign(0, -1))
	params := func(c *Conv2D) {
		w := c.Weight.W.Data
		for i := range w {
			switch r := rng.Intn(16); {
			case r < 2:
				w[i] = []float32{0, negZero}[r]
			case g.specialW && r == 2:
				w[i] = []float32{float32(math.Inf(1)), float32(math.Inf(-1)), madeNaN}[rng.Intn(3)]
			}
		}
		b := c.Bias.W.Data
		for i := range b {
			switch {
			case g.bias == 1:
				b[i] = negZero
			case g.bias == 2 || g.bias == 3 && rng.Intn(3) == 0:
				b[i] = float32(rng.Norm())
			case g.bias == 3:
				b[i] = []float32{0, negZero}[rng.Intn(2)]
			}
		}
	}
	net := NewNetwork("fuzz", g.inC, g.h, g.w)
	c1 := NewConv2D("c1", g.inC, g.outC, g.k, g.stride, g.pad, rng)
	params(c1)
	net.Add(c1)
	if g.relu {
		net.Add(NewReLU("r1"))
	}
	if g.pool != 0 {
		net.Add(NewMaxPool2D("p1", g.pool, 2))
	}
	if g.second {
		c2 := NewConv2D("c2", g.outC, g.outC, 3, 1, 1, rng)
		params(c2)
		net.Add(c2, NewReLU("r2"))
	}
	x := randBatch(rng, g.batch, net.InShape)
	if g.specialX {
		for i := range x.Data {
			if r := rng.Intn(32); r < 3 {
				x.Data[i] = []float32{madeNaN, 0, negZero}[r]
			}
		}
	}
	return net, x
}

// checkInferenceBitwise compiles g's network as an inference plan and as a
// training plan and requires the two Forwards to agree bit for bit, under
// the scalar, AVX2 and probed kernel tables (the ones the host runs) and
// at one and two workers. The training forward lowers every convolution
// and runs ReLU and pool as their own passes, so it is an independent
// reference for the halo steps, whichever of them the link rule formed.
func checkInferenceBitwise(t *testing.T, g fuzzConvNet, seed uint64) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	defer tensor.SetKernels("auto")
	net, x := g.build(tensor.NewRNG(seed))
	for _, isa := range []string{"scalar", "avx2", "auto"} {
		if tensor.SetKernels(isa) != nil {
			continue // not on this host
		}
		for _, workers := range []int{1, 2} {
			tensor.SetWorkers(workers)
			want := Compile(net, g.batch, true, nil).Forward(x)
			got := Compile(net, g.batch, false, nil).Forward(x)
			requireSameBits(t, fmt.Sprintf("%v seed %d kernels %s workers %d", g, seed, isa, workers), got.Data, want.Data)
		}
	}
}

// FuzzInferencePlanBitwise is the property behind the halo steps: an
// inference plan's Forward is bit for bit the training plan's over the same
// network, for any convolution geometry and the layers the link rule folds
// (see checkInferenceBitwise and decodeFuzzNet). The seed corpus runs in
// go test: hep-small's first two units (at batch 70: two tiles and a tail),
// hep-tiny's (the benchmark's serving model), the climate encoder's
// stride-1 geometry — its last conv and the three heads at 4×4, channels
// at the fuzzer's ceiling — behind a stride-2 conv, and shapes from the
// lowering reference tests: kernels 1 and 5, pads 0–2, odd and unequal
// planes, pool windows clipped at the edge. Fuzz with
// go test -run '^$' -fuzz FuzzInferencePlanBitwise ./internal/nn.
func FuzzInferencePlanBitwise(f *testing.F) {
	const relu, pool2, pool3, drawn, mixed, specW, specX, second = 1, 1 << 1, 2 << 1, 2 << 3, 3 << 3, 32, 64, 128
	for _, s := range []struct {
		inC, outC, h, w, k, pad, stride, opts, batch uint8
	}{
		{3, 16, 32, 32, 3, 1, 1, relu | pool2 | drawn | second, 70},         // hep-small conv1, conv2
		{16, 16, 8, 8, 3, 1, 1, relu | pool2 | drawn | second, 70},          // hep-small conv3, conv4
		{3, 8, 4, 4, 3, 1, 1, relu | pool2 | drawn | second, 64},            // hep-tiny
		{20, 40, 4, 4, 3, 1, 1, relu | drawn, 70},                           // climate enc_conv4 geometry
		{20, 1, 4, 4, 3, 1, 1, drawn, 33},                                   // climate heads
		{16, 12, 32, 32, 3, 1, 2, relu | mixed | second, 40},                // stride-2 encoder conv, then a fused one
		{3, 16, 32, 32, 3, 1, 1, mixed, 70},                                 // lowering test: hep-small conv1 at 70
		{4, 9, 7, 12, 5, 2, 1, relu | pool3 | mixed | specW | specX, 7},     // k5 pad 2, 3×3/2 pool
		{2, 5, 9, 6, 1, 2, 1, relu | pool2 | 1<<3 | specX | second, 5},      // k1 pad 2, −0 bias
		{3, 7, 11, 5, 3, 0, 2, pool2 | drawn | specW, 3},                    // stride 2, odd plane
		{1, 1, 1, 1, 1, 0, 1, relu | pool2 | second, 1},                     // 1×1: the pool clips, not fused
		{5, 3, 13, 2, 5, 2, 1, relu | pool2 | mixed | specW | specX, 35},    // odd rows, two columns
		{2, 10, 5, 17, 3, 1, 1, pool2 | mixed | specW | specX, 70},          // pool without ReLU, specials through it
		{1, 33, 40, 40, 2, 0, 1, relu | pool2 | drawn | specX | second, 12}, // even kernel, odd output
		{1, 16, 12, 20, 3, 1, 1, mixed | specW | specX, 9},                  // specials straight to the output
	} {
		f.Add(s.inC-1, s.outC-1, s.h-1, s.w-1, s.k-1, s.pad, s.stride-1, s.opts, s.batch-1, uint64(s.inC)*131+uint64(s.h))
	}
	f.Fuzz(func(t *testing.T, inC, outC, h, w, k, pad, stride, opts, batch uint8, seed uint64) {
		checkInferenceBitwise(t, decodeFuzzNet(inC, outC, h, w, k, pad, stride, opts, batch), seed)
	})
}

// TestHaloPlanHoldsNoLowering: a hep-small inference plan fuses all four
// convolutions, so its arena holds the activations that still exist, the
// four halo images and the one C block — and no lowering scratch.
func TestHaloPlanHoldsNoLowering(t *testing.T) {
	net := hepSmallNet(tensor.NewRNG(3))
	arena := tensor.NewArena()
	p := Compile(net, inferTile, false, arena)
	p.Forward(randBatch(tensor.NewRNG(4), inferTile, net.InShape))
	held, halos := int64(cap(p.cblk)), 0
	for _, s := range p.steps {
		held += int64(cap(s.ySlab))
		if s.halo != nil {
			held += int64(cap(s.halo.images))
			halos++
		}
	}
	if halos != 4 || p.evalSt.Col != nil || p.evalSt.Eval != nil {
		t.Fatalf("%d halo steps, lowering scratch %d + %d floats; want 4 and none", halos, len(p.evalSt.Col), len(p.evalSt.Eval))
	}
	if st := arena.Stats(); st.TotalFloats != held {
		t.Fatalf("arena handed out %d floats, the plan's slabs are %d", st.TotalFloats, held)
	}
	// conv1..conv4 each fold their ReLU, the first three their pool too.
	var kept []string
	for _, s := range p.steps {
		if s.layer != nil {
			kept = append(kept, s.layer.Name())
		}
	}
	if got := fmt.Sprint(kept); got != "[conv1 conv2 conv3 conv4 gap fc]" {
		t.Fatalf("schedule %s", got)
	}
	p.Release()
	if st := arena.Stats(); st.HeldFloats != st.TotalFloats {
		t.Fatalf("after Release the arena holds %d of %d floats", st.HeldFloats, st.TotalFloats)
	}
}

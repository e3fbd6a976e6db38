package nn

import (
	"fmt"
	"math"
	"testing"

	"deep15pf/internal/tensor"
)

// fuzzConvNet is one network the plan fuzzers draw: a convolution — or a
// deconvolution — of any geometry, optionally followed by a ReLU, by a
// 2×2/2 or 3×3/2 max-pool and by a second unit (3×3/1/1 convolution and
// ReLU) that reads the first one's output — from its image when both
// fuse.
type fuzzConvNet struct {
	inC, outC, h, w, k, pad, stride int
	deconv                          bool // the first unit is a Deconv2D
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
// pad 0–2, stride 1–2 (the stride byte's second bit makes the first unit
// a deconvolution), batch 1–70 (tiled above InferTile).
func decodeFuzzNet(inC, outC, h, w, k, pad, stride, opts, batch uint8) fuzzConvNet {
	g := fuzzConvNet{
		inC: 1 + int(inC)%20, outC: 1 + int(outC)%40,
		h: 1 + int(h)%40, w: 1 + int(w)%40,
		k: 1 + int(k)%5, pad: int(pad) % 3, stride: 1 + int(stride)%2, deconv: stride&2 != 0,
		relu: opts&1 != 0, pool: []int{0, 2, 3, 0}[opts>>1&3], bias: int(opts >> 3 & 3),
		specialW: opts&32 != 0, specialX: opts&64 != 0, second: opts&128 != 0,
		batch: 1 + int(batch)%70,
	}
	g.h, g.w = max(g.h, g.k-2*g.pad), max(g.w, g.k-2*g.pad)
	oh, ow := tensor.ConvOut(g.h, g.k, g.stride, g.pad), tensor.ConvOut(g.w, g.k, g.stride, g.pad)
	if g.deconv {
		g.h, g.w = min(g.h, 20), min(g.w, 20)
		for (min(g.h, g.w)-1)*g.stride+g.k-2*g.pad < 1 {
			g.pad--
		}
		oh, ow = (g.h-1)*g.stride+g.k-2*g.pad, (g.w-1)*g.stride+g.k-2*g.pad
	}
	if g.pool != 0 && (tensor.ConvOut(oh, g.pool, 2, 0) < 1 || tensor.ConvOut(ow, g.pool, 2, 0) < 1) {
		g.pool = 0
	}
	macs := g.outC * g.inC * g.k * g.k * oh * ow
	if g.deconv {
		macs = g.outC * g.inC * g.k * g.k * g.h * g.w
	}
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
	return fmt.Sprintf("in %d out %d %dx%d k %d pad %d stride %d deconv %v relu %v pool %d bias %d specials %v/%v second %v batch %d",
		g.inC, g.outC, g.h, g.w, g.k, g.pad, g.stride, g.deconv, g.relu, g.pool, g.bias, g.specialW, g.specialX, g.second, g.batch)
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
	params := func(wt, b []float32) {
		w := wt
		for i := range w {
			switch r := rng.Intn(16); {
			case r < 2:
				w[i] = []float32{0, negZero}[r]
			case g.specialW && r == 2:
				w[i] = []float32{float32(math.Inf(1)), float32(math.Inf(-1)), madeNaN}[rng.Intn(3)]
			}
		}
		if g.specialW {
			// The first filter's top-left tap reaches the padding (when
			// there is any) for the first output row and column: read
			// there as a +0 border, ∞ would make NaN.
			w[0] = float32(math.Inf(1))
		}
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
	if g.deconv {
		d1 := NewDeconv2D("c1", g.inC, g.outC, g.k, g.stride, g.pad, rng)
		params(d1.Weight.W.Data, d1.Bias.W.Data)
		net.Add(d1)
	} else {
		c1 := NewConv2D("c1", g.inC, g.outC, g.k, g.stride, g.pad, rng)
		params(c1.Weight.W.Data, c1.Bias.W.Data)
		net.Add(c1)
	}
	if g.relu {
		net.Add(NewReLU("r1"))
	}
	if g.pool != 0 {
		net.Add(NewMaxPool2D("p1", g.pool, 2))
	}
	if g.second {
		c2 := NewConv2D("c2", g.outC, g.outC, 3, 1, 1, rng)
		params(c2.Weight.W.Data, c2.Bias.W.Data)
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

// fuzzISAs are the kernel tables the plan fuzzers run under (those the
// host has), and fuzzWorkers the worker counts.
var (
	fuzzISAs    = []string{"scalar", "avx2", "auto"}
	fuzzWorkers = []int{1, 2}
)

// checkInferenceBitwise compiles g's network as an inference plan and
// requires its Forward to agree bit for bit with refNet's, under the
// scalar, AVX2 and probed kernel tables (the ones the host runs) and at one
// and two workers, with every byte its buffers share poisoned with NaN
// before each pass (poisonShared). refNet runs each layer in turn — every convolution and
// deconvolution as the per-sample lowering, ReLU and pool as their own
// passes — so it is an independent reference for the direct steps,
// whichever of them the link rule formed.
func checkInferenceBitwise(t *testing.T, g fuzzConvNet, seed uint64) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	defer tensor.SetKernels("auto")
	net, x := g.build(tensor.NewRNG(seed))
	for _, isa := range fuzzISAs {
		if tensor.SetKernels(isa) != nil {
			continue // not on this host
		}
		want := newRef(net).Forward(x, false)
		for _, workers := range fuzzWorkers {
			tensor.SetWorkers(workers)
			p := Compile(net, g.batch, false, nil)
			for pass := 1; pass <= 2; pass++ { // the second sees a tiled plan's lanes poisoned too
				poisonShared(p)
				requireSameBits(t, fmt.Sprintf("%v seed %d kernels %s workers %d pass %d", g, seed, isa, workers, pass), p.Forward(x).Data, want.Data)
			}
		}
	}
}

// FuzzInferencePlanBitwise is the property behind the inference direct
// steps: an inference plan's Forward is bit for bit refNet's over the same
// network, for any convolution or deconvolution geometry and the layers
// the link rule folds (see checkInferenceBitwise and decodeFuzzNet). The
// seed corpus runs in go test: hep-small's first two units (at batch 70:
// two tiles and a tail), hep-tiny's (the benchmark's serving model), the
// climate encoder's stride-1 geometry — its last conv and the three heads
// at 4×4, channels at the fuzzer's ceiling — behind a stride-2 conv, the
// climate benchmark's stride-2 encoder planes and its decoder's 4×4/2
// pad-1 deconvolutions, odd planes at stride 2, and shapes from the
// lowering reference tests: kernels 1 and 5, pads 0–2, odd and unequal
// planes, pool windows clipped at the edge. Fuzz with
// go test -run '^$' -fuzz FuzzInferencePlanBitwise ./internal/nn.
func FuzzInferencePlanBitwise(f *testing.F) {
	const relu, pool2, pool3, drawn, mixed, specW, specX, second = 1, 1 << 1, 2 << 1, 2 << 3, 3 << 3, 32, 64, 128
	const deconv = 2 // added to a stride: s.stride−1 then carries the deconvolution bit
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
		{16, 32, 32, 32, 3, 1, 2, relu | drawn, 4},                          // climate enc_conv1
		{20, 40, 16, 16, 3, 1, 2, relu | drawn | second, 4},                 // enc_conv2's planes, channels at the ceiling
		{20, 40, 8, 8, 3, 1, 2, relu | mixed | specW | specX, 4},            // enc_conv3's
		{20, 40, 4, 4, 4, 1, 2 + deconv, relu | drawn, 4},                   // climate dec_deconv1's planes
		{20, 32, 8, 8, 4, 1, 2 + deconv, relu | drawn | second, 4},          // dec_deconv2, then a halo step
		{16, 16, 16, 16, 4, 1, 2 + deconv, mixed | specW | specX, 4},        // dec_deconv3, specials
		{5, 7, 9, 13, 3, 1, 2, relu | pool2 | drawn | specX | second, 3},    // odd planes at stride 2
		{3, 4, 7, 5, 4, 1, 2 + deconv, relu | pool2 | mixed | specW, 5},     // an odd deconvolution, pooled
		{2, 3, 11, 5, 3, 0, 2, relu | drawn | specW | specX, 70},            // stride 2, pad 0, odd, tiled
		{4, 6, 5, 9, 3, 2, 1 + deconv, relu | drawn | second, 6},            // a stride-1 deconvolution
	} {
		f.Add(s.inC-1, s.outC-1, s.h-1, s.w-1, s.k-1, s.pad, s.stride-1, s.opts, s.batch-1, uint64(s.inC)*131+uint64(s.h))
	}
	f.Fuzz(func(t *testing.T, inC, outC, h, w, k, pad, stride, opts, batch uint8, seed uint64) {
		checkInferenceBitwise(t, decodeFuzzNet(inC, outC, h, w, k, pad, stride, opts, batch), seed)
	})
}

// checkTrainBitwise compiles g's network as a training plan — with its
// first unit frozen when frozen is set and there is a second to train —
// and holds it to refNet bit for bit: the train-mode Forward, the input
// gradient BackwardStream returns, and every trainable parameter's
// gradient after BackwardStream and after BackwardParams (each after its
// own Forward), under the fuzzers' kernel tables and worker counts, with
// every byte the plan's buffers share poisoned with NaN after compile and
// again before the second Forward (poisonShared). refNet lowers every
// convolution and deconvolution and runs each ReLU and pool as its own
// pass, forward and backward.
func checkTrainBitwise(t *testing.T, g fuzzConvNet, frozen bool, seed uint64) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	defer tensor.SetKernels("auto")
	rng := tensor.NewRNG(seed)
	net, x := g.build(rng)
	if frozen = frozen && g.second; frozen {
		net.Freeze("c1")
	}
	dout := randBatch(rng, g.batch, net.OutShape())
	params := net.TrainableParams()
	for _, isa := range fuzzISAs {
		if tensor.SetKernels(isa) != nil {
			continue // not on this host
		}
		ref := newRef(net)
		wantY := ref.Forward(x, true)
		net.ZeroGrad()
		wantDx := ref.Backward(dout)
		var wantGrads [][]float32
		for _, prm := range params {
			wantGrads = append(wantGrads, append([]float32(nil), prm.Grad.Data...))
		}
		for _, workers := range fuzzWorkers {
			tensor.SetWorkers(workers)
			what := fmt.Sprintf("%v frozen %v seed %d kernels %s workers %d", g, frozen, seed, isa, workers)
			requireGrads := func(after string) {
				for i, prm := range params {
					requireSameBits(t, fmt.Sprintf("%s: %s gradient after %s", what, prm.Name, after), prm.Grad.Data, wantGrads[i])
				}
			}
			p := Compile(net, g.batch, true, nil)
			poisonShared(p)
			requireSameBits(t, what+": forward", p.Forward(x).Data, wantY.Data)
			net.ZeroGrad()
			requireSameBits(t, what+": input gradient", p.BackwardStream(dout, nil).Data, wantDx.Data)
			requireGrads("BackwardStream")
			// A backward may take the bytes of activations whose gradient
			// steps it has passed: each backward needs its own forward.
			poisonShared(p)
			p.Forward(x)
			net.ZeroGrad()
			p.BackwardParams(dout, nil)
			requireGrads("BackwardParams")
		}
	}
}

// FuzzTrainPlanBitwise is the property behind the training direct steps:
// a training plan — convolutions run from their (phase-split) images,
// their ReLU and pool folded into the store, which records the winners,
// backward unpooled through them, weight gradients read back out of the
// images and input gradients taken as the forward's adjoint; a
// deconvolution as its adjoint convolution's step — is bit for bit
// refNet over the same network (see checkTrainBitwise), forward and
// backward, for any convolution or deconvolution geometry. The seed
// corpus runs in go test: hep-small's four units at batch 16, the climate
// encoder's stride-1 geometry — its last conv and the three heads at 4×4,
// batch 4 — the climate benchmark's stride-2 encoder planes and its
// decoder's 4×4/2 pad-1 deconvolutions (one of them frozen), odd planes
// at stride 2, odd widths, kernels 1 and 5, pads 0 and 2, NaN, ±Inf and
// −0 in inputs, weights and biases, ∞ on a border tap, pools over odd
// planes (their dropped row and column get +0) and at widths 2 and 3,
// pools without a ReLU, and a frozen first unit. Fuzz with
// go test -run '^$' -fuzz FuzzTrainPlanBitwise ./internal/nn.
func FuzzTrainPlanBitwise(f *testing.F) {
	const relu, pool2, pool3, drawn, mixed, specW, specX, second = 1, 1 << 1, 2 << 1, 2 << 3, 3 << 3, 32, 64, 128
	const deconv = 2 // added to a stride: s.stride−1 then carries the deconvolution bit
	for _, s := range []struct {
		inC, outC, h, w, k, pad, stride, opts, batch uint8
		frozen                                       bool
	}{
		{3, 16, 32, 32, 3, 1, 1, relu | pool2 | drawn | second, 16, false},               // hep-small conv1, conv2
		{16, 16, 8, 8, 3, 1, 1, relu | pool2 | drawn | second, 16, false},                // hep-small conv3, conv4
		{20, 40, 4, 4, 3, 1, 1, relu | drawn, 4, false},                                  // climate enc_conv4 geometry
		{20, 1, 4, 4, 3, 1, 1, drawn, 4, false},                                          // climate confidence head
		{20, 4, 4, 4, 3, 1, 1, drawn | specX, 4, false},                                  // box head
		{20, 8, 4, 4, 3, 1, 1, mixed | specW, 4, false},                                  // class head, −0 biases and specials
		{16, 12, 32, 32, 3, 1, 2, relu | mixed | second, 6, false},                       // stride-2 encoder conv, then a halo one
		{4, 9, 7, 12, 5, 2, 1, relu | pool3 | mixed | specW | specX, 5, false},           // k5 pad 2, widths 12 and 8
		{2, 5, 9, 5, 1, 2, 1, relu | pool2 | 1<<3 | specX | second, 3, false},            // k1 pad 2, width 9, −0 bias
		{3, 7, 11, 7, 3, 0, 1, pool2 | drawn | specW | specX, 3, false},                  // pad 0, width 5
		{2, 10, 5, 17, 3, 1, 1, relu | mixed | specW | specX | second, 7, false},         // width 17, specials through both units
		{1, 33, 17, 17, 5, 0, 1, relu | pool2 | drawn | specX | second, 2, false},        // k5 pad 0, width 13
		{3, 16, 32, 32, 3, 1, 1, relu | pool2 | drawn | specW | specX | second, 4, true}, // hep-small conv1 frozen, conv2 trained
		{3, 6, 9, 11, 3, 1, 1, relu | pool2 | drawn | specX | second, 4, false},          // odd plane: the dropped row and column get +0
		{2, 5, 7, 9, 3, 1, 1, pool2 | mixed | specW | specX, 3, false},                   // odd plane, no ReLU: windows nothing wins
		{4, 8, 2, 2, 3, 1, 1, relu | pool2 | drawn | second, 6, false},                   // a pool at width 2, then a 1×1 halo step
		{3, 5, 3, 3, 3, 1, 1, relu | pool2 | drawn | specW | second, 5, false},           // a pool at width 3
		{2, 4, 5, 6, 3, 1, 1, relu | pool2 | specW | second, 3, false},                   // ∞ on the border taps of both units
		{16, 32, 32, 32, 3, 1, 2, relu | drawn, 4, false},                                // climate enc_conv1
		{20, 40, 16, 16, 3, 1, 2, relu | drawn | second, 4, false},                       // enc_conv2's planes, then a halo step
		{20, 40, 8, 8, 3, 1, 2, relu | mixed | specW | specX, 4, false},                  // enc_conv3's, specials
		{20, 40, 4, 4, 4, 1, 2 + deconv, relu | drawn, 4, false},                         // climate dec_deconv1's planes
		{20, 32, 8, 8, 4, 1, 2 + deconv, relu | drawn | second, 4, false},                // dec_deconv2, then a halo step
		{16, 16, 16, 16, 4, 1, 2 + deconv, mixed | specW | specX, 4, false},              // dec_deconv3, specials
		{20, 16, 8, 8, 4, 1, 2 + deconv, relu | drawn | second, 4, true},                 // a frozen deconvolution
		{5, 7, 9, 13, 3, 1, 2, relu | pool2 | drawn | specX | second, 3, false},          // odd planes at stride 2
		{3, 4, 7, 5, 4, 1, 2 + deconv, relu | pool2 | mixed | specW, 5, false},           // an odd deconvolution, pooled
		{2, 3, 11, 5, 3, 0, 2, relu | drawn | specW | specX, 5, false},                   // stride 2, pad 0, odd
		{4, 6, 5, 9, 3, 2, 1 + deconv, relu | drawn | second, 3, false},                  // a stride-1 deconvolution
	} {
		f.Add(s.inC-1, s.outC-1, s.h-1, s.w-1, s.k-1, s.pad, s.stride-1, s.opts, s.batch-1, s.frozen, uint64(s.inC)*131+uint64(s.h))
	}
	f.Fuzz(func(t *testing.T, inC, outC, h, w, k, pad, stride, opts, batch uint8, frozen bool, seed uint64) {
		checkTrainBitwise(t, decodeFuzzNet(inC, outC, h, w, k, pad, stride, opts, batch), frozen, seed)
	})
}

// TestHaloPlanHoldsNoLowering: a hep-small plan runs all four
// convolutions as halo steps, so its one slab holds the activations that
// still exist, the four halo images and the one C block — and no lowering.
// Inference and training plans share the link rule: every ReLU and the
// first three pools fold into the store, and conv1–3 store into the next
// image, with no output slab. A training plan at batch 16 adds the input
// gradients and one sample's output gradient per step, which share bytes;
// after a step under BackwardStream no halo step holds a lowering, a Wᵀ·dy
// matrix or any other scratch.
func TestHaloPlanHoldsNoLowering(t *testing.T) {
	for _, c := range []struct {
		train bool
		n     int
	}{
		{false, InferTile},
		{true, 16},
	} {
		net := hepSmallNet(tensor.NewRNG(3))
		arena := tensor.NewArena()
		p := Compile(net, c.n, c.train, arena)
		x := randBatch(tensor.NewRNG(4), c.n, net.InShape)
		y := p.Forward(x)
		if c.train {
			grad := tensor.New(c.n, 2)
			SoftmaxCrossEntropyInto(y, make([]int, c.n), grad)
			p.BackwardStream(grad, nil)
			p.BackwardParams(grad, nil)
		}
		held, halos := int64(cap(p.cblk)), 0
		var kept []string
		for i := range p.steps {
			s := &p.steps[i]
			held += int64(cap(s.ySlab) + cap(s.dxSlab))
			if s.st.conv != nil || s.st.deconv != nil || s.st.cb != nil {
				t.Fatalf("train %v: step %d holds a layer's own step", c.train, i)
			}
			if h := s.halo; h != nil {
				held += int64(cap(h.images) + cap(h.dy) + cap(h.dyG) + cap(h.dxG))
				halos++
				if s.train != c.train || !h.relu || (i < 9) != (h.pool && h.next != nil && s.ySlab == nil) {
					t.Fatalf("train %v: %s folds relu %v pool %v, linked %v, slab %d; want a ReLU, and the pool and link for conv1–3", c.train, s.layer.Name(), h.relu, h.pool, h.next != nil, len(s.ySlab))
				}
				if wantIdx := c.n * h.outPer(); c.train && h.pool && len(h.argmax) != wantIdx {
					t.Fatalf("%s records %d winners, want %d", s.layer.Name(), len(h.argmax), wantIdx)
				}
			}
			if s.layer != nil {
				kept = append(kept, s.layer.Name())
			}
		}
		if got := fmt.Sprint(kept); halos != 4 || got != "[conv1 conv2 conv3 conv4 gap fc]" {
			t.Fatalf("train %v: %d halo steps, schedule %s; want 4, [conv1 conv2 conv3 conv4 gap fc]", c.train, halos, got)
		}
		if st := arena.Stats(); st.TotalFloats != int64(len(p.slab)) || int64(len(p.slab)) > held || c.train && int64(len(p.slab)) == held {
			t.Fatalf("train %v: arena handed out %d floats, the plan's slab is %d for buffers of %d", c.train, st.TotalFloats, len(p.slab), held)
		}
		p.Release()
		if p.slab != nil || p.steps != nil {
			t.Fatalf("train %v: the plan keeps its slab after Release", c.train)
		}
	}
}

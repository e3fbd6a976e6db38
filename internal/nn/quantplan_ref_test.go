package nn

import (
	"fmt"
	"testing"

	"deep15pf/internal/quant"
	"deep15pf/internal/tensor"
)

// The int8 plan's arithmetic, written the plain way: quantize the fp32
// NCHW activation, gather each patch with the zero-point in the padding,
// take the exact integer dot product per output element, requantize to
// fp32, and run every other layer in fp32. QuantPlan keeps activations as
// bytes between layers, walks a channel-last image and folds ReLU and
// pooling into its epilogue; the claim it makes is that none of that
// changes a bit, and this is what it is held against.

func refQuantize(v float32, inv float64) uint8 {
	t := float64(v)*inv + 128.5
	if t < 0 {
		t = 0
	} else if t > 255 {
		t = 255
	}
	return uint8(int32(t))
}

func refScale(calib []float32, i int) float32 {
	if calib[i] == 0 {
		return 1
	}
	return calib[i] / 127
}

// refQLayer runs one conv-shaped layer (a Dense is a kernel over its whole
// input) on x [N, C, H, W] and returns [N, outC, OH, OW].
func refQLayer(weight, bias []float32, outC, kh, kw, stride, pad int, x *tensor.Tensor, sA float32) *tensor.Tensor {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	k := c * kh * kw
	wscale := quant.ScaleForChannels(weight, k)
	wq := make([]int8, outC*k)
	quant.QuantizeChannelsInto(wq, weight, wscale, k)
	inv := float64(1) / float64(sA)
	xq := make([]uint8, x.Len())
	for i, v := range x.Data {
		xq[i] = refQuantize(v, inv)
	}
	oh, ow := tensor.ConvOut(h, kh, stride, pad), tensor.ConvOut(w, kw, stride, pad)
	y := tensor.New(n, outC, oh, ow)
	for s := 0; s < n; s++ {
		for f := 0; f < outC; f++ {
			var rowSum int32
			for _, v := range wq[f*k : (f+1)*k] {
				rowSum += int32(v)
			}
			sc := sA * wscale[f]
			var b float32
			if bias != nil {
				b = bias[f]
			}
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc int32
					for ch := 0; ch < c; ch++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								q := int32(128)
								iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
								if iy >= 0 && iy < h && ix >= 0 && ix < w {
									q = int32(xq[((s*c+ch)*h+iy)*w+ix])
								}
								acc += int32(wq[f*k+(ch*kh+ky)*kw+kx]) * q
							}
						}
					}
					y.Data[((s*outC+f)*oh+oy)*ow+ox] = float32(sc*float32(acc-128*rowSum)) + b
				}
			}
		}
	}
	return y
}

func refQuantForward(net *Network, x *tensor.Tensor, calib []float32) *tensor.Tensor {
	cur := x
	for i, l := range net.Layers {
		switch ll := l.(type) {
		case *Conv2D:
			var bias []float32
			if !ll.noBias {
				bias = ll.Bias.W.Data
			}
			cur = refQLayer(ll.Weight.W.Data, bias, ll.OutC, ll.KH, ll.KW, ll.Stride, ll.Pad, cur, refScale(calib, i))
		case *Dense:
			n := cur.Shape[0]
			img := tensor.FromSlice(cur.Data, n, ll.In, 1, 1)
			if cur.Rank() == 4 {
				img = cur
			}
			y := refQLayer(ll.Weight.W.Data, ll.Bias.W.Data, ll.Out, img.Shape[2], img.Shape[3], 1, 0, img, refScale(calib, i))
			cur = tensor.FromSlice(y.Data, n, ll.Out)
		default:
			cur = run(l).Forward(cur, false)
		}
	}
	return cur
}

// randQNet draws a network that exercises the plan's choices: what lies
// between two quantized layers (nothing, ReLU, a pool of either geometry,
// both, or something the epilogue cannot fold), whether the head is dense
// over a plane, over a pooled vector or over another dense layer, and
// channel counts on both sides of every rounding (4 bytes, 16 lanes).
// draw(n) makes each choice, a value in [0, n); rng initialises the
// weights.
func randQNet(draw func(n int) int, rng *tensor.RNG) *Network {
	pick := func(v ...int) int { return v[draw(len(v))] }
	for {
		inC, h := pick(1, 3, 4, 5, 16), 4+draw(11)
		w := h + 1 + draw(5)
		net := NewNetwork("qref", inC, h, w)
		shape := []int{inC, h, w}
		ok := true
		add := func(l Layer) {
			if !ok {
				return
			}
			for _, d := range shape[1:] {
				switch ll := l.(type) {
				case *Conv2D:
					ok = ok && d+2*ll.Pad >= ll.KH
				case *MaxPool2D:
					ok = ok && d >= ll.K
				}
			}
			if ok {
				net.Add(l)
				shape = l.OutShape(shape)
			}
		}
		conv := func(name string) {
			add(NewConv2D(name, shape[0], pick(1, 2, 5, 8, 16, 17, 33), pick(1, 3, 5), pick(1, 1, 2), pick(0, 1, 2), rng))
		}
		between := func(tag string) {
			if draw(4) > 0 {
				add(NewReLU("relu" + tag))
			}
			switch draw(4) {
			case 0:
				add(NewMaxPool2D("pool"+tag, 2, 2))
			case 1:
				add(NewMaxPool2D("pool"+tag, pick(2, 3), pick(1, 2, 3)))
			}
			if draw(6) == 0 {
				add(NewReLU("relu'" + tag))
			}
		}
		conv("conv1")
		between("1")
		conv("conv2")
		between("2")
		if draw(2) == 0 {
			conv("conv3")
			add(NewReLU("relu3"))
		}
		switch draw(3) {
		case 0:
			add(NewGlobalAvgPool("gap"))
		case 1:
			add(NewDense("fc0", shapeElems(shape), pick(3, 16, 20), rng))
			add(NewReLU("relu4"))
		}
		add(NewDense("fc", shapeElems(shape), pick(2, 10), rng))
		if ok {
			return net
		}
	}
}

// TestQuantPlanMatchesReference is the bitwise gate of the int8 datapath:
// over random networks and batches, under every kernel table and one, two
// and four kernel workers, QuantPlan.Forward equals the plain reference bit
// for bit. The last case is the HEP topology at a size whose layers cross
// the parallel threshold.
func TestQuantPlanMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(41)
	type tcase struct {
		net     *Network
		batches []int
	}
	var cases []tcase
	for i := 0; i < 24; i++ {
		cases = append(cases, tcase{randQNet(rng.Intn, rng), []int{1 + rng.Intn(6), 1}})
	}
	hep := NewNetwork("hep-like", 3, 32, 32)
	hep.Add(
		NewConv2D("c1", 3, 16, 3, 1, 1, rng), NewReLU("r1"), NewMaxPool2D("p1", 2, 2),
		NewConv2D("c2", 16, 16, 3, 1, 1, rng), NewReLU("r2"), NewMaxPool2D("p2", 2, 2),
		NewConv2D("c3", 16, 16, 3, 1, 1, rng), NewReLU("r3"), NewGlobalAvgPool("gap"),
		NewDense("fc", 16, 2, rng),
	)
	cases = append(cases, tcase{hep, []int{9, 3}})

	defer tensor.SetWorkers(tensor.SetWorkers(1))
	defer tensor.SetKernels("auto")
	for ci, tc := range cases {
		calib := CalibrateActivations(tc.net, randBatch(rng, 5, tc.net.InShape))
		xs := make([]*tensor.Tensor, len(tc.batches))
		wants := make([]*tensor.Tensor, len(tc.batches))
		for bi, n := range tc.batches {
			xs[bi] = randBatch(rng, n, tc.net.InShape)
			if bi == 0 {
				// Values beyond the calibrated range saturate.
				xs[bi].Data[0], xs[bi].Data[1] = 40, -40
			}
			wants[bi] = refQuantForward(tc.net, xs[bi], calib)
		}
		for _, isa := range tensor.KernelISAs() {
			if err := tensor.SetKernels(isa); err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				tensor.SetWorkers(workers)
				// One plan serves the full batch and then a tail batch:
				// the second call must not see the first one's bytes.
				qp := CompileQuantized(tc.net, tc.batches[0], calib, nil)
				for bi := range xs {
					name := fmt.Sprintf("case %d isa=%s workers=%d batch=%d", ci, isa, workers, xs[bi].Shape[0])
					requireBitwise(t, name, qp.Forward(xs[bi]), wants[bi])
				}
				qp.Release()
			}
		}
	}
}

// fuzzQMACs caps the multiply-adds of one FuzzQuantPlanBitwise draw: the
// batch shrinks until the network fits, so that the plain reference, a
// scalar loop per multiply-add, stays short.
const fuzzQMACs = 8 << 20

// FuzzQuantPlanBitwise is TestQuantPlanMatchesReference over geometries the
// fuzzer chooses: the fuzz bytes make randQNet's choices one byte each
// (zeros once they run out), then pick a batch of 1–80 samples (tiled above
// InferTile) and one or two workers. The calibrated plan must equal the
// plain reference bit for bit under the scalar, AVX2 and probed kernel
// tables. The seed corpus runs in go test. Fuzz with
// go test -run '^$' -fuzz FuzzQuantPlanBitwise ./internal/nn.
func FuzzQuantPlanBitwise(f *testing.F) {
	for _, s := range []struct {
		geometry       []byte
		batch, workers uint8
	}{
		{nil, 69, 1},
		{nil, 32, 2},
		{[]byte{1, 9, 5, 2, 4, 2, 1, 3, 0, 1, 0, 2, 1, 1, 4, 0, 0, 1, 2}, 40, 1},
		{[]byte{4, 0, 0, 6, 2, 2, 2, 1, 1, 2, 3, 0, 0, 3, 1, 1, 1, 5, 0}, 70, 2},
		{[]byte{2, 3, 3, 3, 1, 1, 0, 3, 3, 1, 5, 2, 0, 1, 2, 1, 1, 2, 1}, 33, 2},
	} {
		f.Add(s.geometry, s.batch, s.workers, uint64(len(s.geometry))*7+uint64(s.batch))
	}
	f.Fuzz(func(t *testing.T, geometry []byte, batch, workers uint8, seed uint64) {
		rng := tensor.NewRNG(seed)
		draw := func(n int) int {
			if len(geometry) == 0 {
				return 0
			}
			b := geometry[0]
			geometry = geometry[1:]
			return int(b) % n
		}
		net := randQNet(draw, rng)
		macs := int(net.FLOPsPerSample().Fwd/2) + 1
		n := max(min(1+int(batch)%80, fuzzQMACs/macs), 1)
		calib := CalibrateActivations(net, randBatch(rng, 4, net.InShape))
		x := randBatch(rng, n, net.InShape)
		x.Data[0] = 40 // beyond the calibrated range: saturates
		want := refQuantForward(net, x, calib)

		defer tensor.SetWorkers(tensor.SetWorkers(1 + int(workers)%2))
		defer tensor.SetKernels("auto")
		for _, isa := range []string{"scalar", "avx2", "auto"} {
			if tensor.SetKernels(isa) != nil {
				continue // not on this host
			}
			qp := CompileQuantized(net, n, calib, nil)
			requireBitwise(t, fmt.Sprintf("batch %d workers %d kernels %s", n, tensor.Workers(), isa), qp.Forward(x), want)
			qp.Release()
		}
	})
}

package nn

import (
	"fmt"
	"math"
	"testing"

	"deep15pf/internal/tensor"
)

// The references below are the lowering the layers ran before every
// convolution and deconvolution became a direct step: one sample at a
// time, index-by-index im2col and col2im, one GEMM per sample, bias added
// in place afterwards. They are the definition the direct steps must
// reproduce bit for bit, and what refNet runs those layers as.

func refIm2col(img []float32, c, h, w, k, stride, pad int) []float32 {
	oh, ow := tensor.ConvOut(h, k, stride, pad), tensor.ConvOut(w, k, stride, pad)
	col := make([]float32, c*k*k*oh*ow)
	i := 0
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							col[i] = img[(ch*h+iy)*w+ix]
						}
						i++
					}
				}
			}
		}
	}
	return col
}

func refCol2im(col []float32, c, h, w, k, stride, pad int, img []float32) {
	oh, ow := tensor.ConvOut(h, k, stride, pad), tensor.ConvOut(w, k, stride, pad)
	i := 0
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							img[(ch*h+iy)*w+ix] += col[i]
						}
						i++
					}
				}
			}
		}
	}
}

func refAddBias(ys, bias []float32, cols int) {
	for f, b := range bias {
		if b == 0 {
			continue
		}
		for i := range ys[f*cols : (f+1)*cols] {
			ys[f*cols+i] += b
		}
	}
}

// refConvForward is the lowered forward of c: per sample, im2col, one
// GEMM and the bias added in place.
func refConvForward(c *Conv2D, y, x *tensor.Tensor) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := tensor.ConvOut(h, c.KH, c.Stride, c.Pad), tensor.ConvOut(w, c.KW, c.Stride, c.Pad)
	k, cols := c.InC*c.KH*c.KW, oh*ow
	inStride, outStride := c.InC*h*w, c.OutC*cols
	for s := 0; s < n; s++ {
		col := refIm2col(x.Data[s*inStride:(s+1)*inStride], c.InC, h, w, c.KH, c.Stride, c.Pad)
		ys := y.Data[s*outStride : (s+1)*outStride]
		tensor.Gemm(false, false, c.OutC, cols, k, 1, c.Weight.W.Data, col, 0, ys)
		if !c.noBias {
			refAddBias(ys, c.Bias.W.Data, cols)
		}
	}
}

// refConvBackward is the lowered backward of c over its input x: per
// sample, dW += dy·colᵀ (one NT GEMM), db += each row's left-to-right sum,
// and — when dx is not nil — dx = col2im(Wᵀ·dy).
func refConvBackward(c *Conv2D, dx, x, dout *tensor.Tensor, dW, db []float32) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := tensor.ConvOut(h, c.KH, c.Stride, c.Pad), tensor.ConvOut(w, c.KW, c.Stride, c.Pad)
	k, cols := c.InC*c.KH*c.KW, oh*ow
	inStride, outStride := c.InC*h*w, c.OutC*cols
	dcol := make([]float32, k*cols)
	if dx != nil {
		clear(dx.Data)
	}
	for s := 0; s < n; s++ {
		col := refIm2col(x.Data[s*inStride:(s+1)*inStride], c.InC, h, w, c.KH, c.Stride, c.Pad)
		dy := dout.Data[s*outStride : (s+1)*outStride]
		tensor.Gemm(false, true, c.OutC, k, cols, 1, dy, col, 1, dW)
		if db != nil {
			refRowSums(db, dy, cols)
		}
		if dx != nil {
			tensor.Gemm(true, false, k, cols, c.OutC, 1, c.Weight.W.Data, dy, 0, dcol)
			refCol2im(dcol, c.InC, h, w, c.KH, c.Stride, c.Pad, dx.Data[s*inStride:(s+1)*inStride])
		}
	}
}

// refRowSums adds to db[f] the left-to-right sum of row f of dy.
func refRowSums(db, dy []float32, cols int) {
	for f := range db {
		var sum float32
		for _, v := range dy[f*cols : (f+1)*cols] {
			sum += v
		}
		db[f] += sum
	}
}

// refConv runs the per-sample forward and backward of c over x and dout and
// returns y, dx, dW and db.
func refConv(c *Conv2D, x, dout *tensor.Tensor) (y, dx *tensor.Tensor, dW, db []float32) {
	y = tensor.New(dout.Shape...)
	dx = tensor.New(x.Shape...)
	dW, db = make([]float32, c.Weight.W.Len()), make([]float32, c.OutC)
	refConvForward(c, y, x)
	refConvBackward(c, dx, x, dout, dW, db)
	return y, dx, dW, db
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), reference %v (%#x)", what, i,
				got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestConvStepBitwiseMatchesLowering draws random conv geometries — kernel
// 1/3/5, stride 1/2/3, pad 0/1/2, H≠W, channel counts on and off the
// GEMM's 4-row tile — and holds Conv2D's direct step, train forward, eval
// forward, dx, dW and db, bitwise to the per-sample lowering, on one
// worker and on three. The last case is hep-small's conv1 at a batch of
// 70, whose weight-gradient product is above gemmParallelMin and splits.
func TestConvStepBitwiseMatchesLowering(t *testing.T) {
	rng := tensor.NewRNG(20260926)
	check := func(c *Conv2D, x, dout *tensor.Tensor, name string) {
		wantY, wantDx, wantDW, wantDb := refConv(c, x, dout)
		for _, workers := range []int{1, 3} {
			prev := tensor.SetWorkers(workers)
			tag := fmt.Sprintf("%s workers %d", name, workers)
			rc := run(c)
			requireSameBits(t, tag+" eval y", rc.Forward(x, false).Data, wantY.Data)
			c.Weight.Grad.Zero()
			c.Bias.Grad.Zero()
			requireSameBits(t, tag+" train y", rc.Forward(x, true).Data, wantY.Data)
			requireSameBits(t, tag+" dx", rc.Backward(dout).Data, wantDx.Data)
			requireSameBits(t, tag+" dW", c.Weight.Grad.Data, wantDW)
			requireSameBits(t, tag+" db", c.Bias.Grad.Data, wantDb)

			// Without the input gradient the parameter gradients are the
			// same, and the kept images serve a second pass over the same
			// forward.
			c.Weight.Grad.Zero()
			c.Bias.Grad.Zero()
			rc.Forward(x, true)
			c.BackwardInto(&rc.st[0], nil, dout)
			requireSameBits(t, tag+" dW, no dx", c.Weight.Grad.Data, wantDW)
			requireSameBits(t, tag+" db, no dx", c.Bias.Grad.Data, wantDb)
			c.Weight.Grad.Zero()
			c.Bias.Grad.Zero()
			requireSameBits(t, tag+" dx, second backward", rc.Backward(dout).Data, wantDx.Data)
			requireSameBits(t, tag+" dW, second backward", c.Weight.Grad.Data, wantDW)
			tensor.SetWorkers(prev)
		}
	}
	for trial := 0; trial < 60; trial++ {
		inC, outC := 1+rng.Intn(4), 1+rng.Intn(9)
		k := []int{1, 3, 5}[rng.Intn(3)]
		stride, pad := 1+rng.Intn(3), rng.Intn(3)
		h, w := k+rng.Intn(7), k+1+rng.Intn(8)
		if h == w {
			h++
		}
		n := 1 + rng.Intn(7)
		c := NewConv2D("c", inC, outC, k, stride, pad, rng)
		rng.FillNorm(c.Bias.W, 0, 1)
		c.Bias.W.Data[rng.Intn(outC)] = 0 // the copy-only scatter branch
		x := randBatch(rng, n, []int{inC, h, w})
		oh, ow := tensor.ConvOut(h, k, stride, pad), tensor.ConvOut(w, k, stride, pad)
		dout := randBatch(rng, n, []int{outC, oh, ow})
		check(c, x, dout, fmt.Sprintf("trial %d (in %d out %d k %d s %d p %d %dx%d n %d)", trial, inC, outC, k, stride, pad, h, w, n))
	}
	c := NewConv2D("c", 3, 16, 3, 1, 1, rng)
	rng.FillNorm(c.Bias.W, 0, 1)
	const n = 70
	check(c, randBatch(rng, n, []int{3, 32, 32}), randBatch(rng, n, []int{16, 32, 32}), "hep-small conv1 n 70")
}

// refDeconvForward is the lowered forward of d, the adjoint
// convolution's backward-data path: per sample, one Wᵀ·x GEMM, col2im and
// the bias added in place.
func refDeconvForward(d *Deconv2D, y, x *tensor.Tensor) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := d.outHW(h, w)
	k, cols, plane := d.OutC*d.KH*d.KW, h*w, oh*ow
	col := make([]float32, k*cols)
	for s := 0; s < n; s++ {
		xs := x.Data[s*d.InC*cols : (s+1)*d.InC*cols]
		tensor.Gemm(true, false, k, cols, d.InC, 1, d.Weight.W.Data, xs, 0, col)
		ys := y.Data[s*d.OutC*plane : (s+1)*d.OutC*plane]
		clear(ys)
		refCol2im(col, d.OutC, oh, ow, d.KH, d.Stride, d.Pad, ys)
		refAddBias(ys, d.Bias.W.Data, plane)
	}
}

// refDeconvBackward is the lowered backward of d over its input x, the
// adjoint convolution's forward path: per sample, dy lowered, dx = W·col
// (when dx is not nil), dW += x·colᵀ and db += each row's sum.
func refDeconvBackward(d *Deconv2D, dx, x, dout *tensor.Tensor, dW, db []float32) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := d.outHW(h, w)
	k, cols, plane := d.OutC*d.KH*d.KW, h*w, oh*ow
	for s := 0; s < n; s++ {
		xs := x.Data[s*d.InC*cols : (s+1)*d.InC*cols]
		dy := dout.Data[s*d.OutC*plane : (s+1)*d.OutC*plane]
		dcol := refIm2col(dy, d.OutC, oh, ow, d.KH, d.Stride, d.Pad)
		if dx != nil {
			tensor.Gemm(false, false, d.InC, cols, k, 1, d.Weight.W.Data, dcol, 0, dx.Data[s*d.InC*cols:(s+1)*d.InC*cols])
		}
		tensor.Gemm(false, true, d.InC, k, cols, 1, xs, dcol, 1, dW)
		refRowSums(db, dy, plane)
	}
}

// refDeconv runs the per-sample forward and backward of d over x and dout
// and returns y, dx, dW and db.
func refDeconv(d *Deconv2D, x, dout *tensor.Tensor) (y, dx *tensor.Tensor, dW, db []float32) {
	y = tensor.New(dout.Shape...)
	dx = tensor.New(x.Shape...)
	dW, db = make([]float32, d.Weight.W.Len()), make([]float32, d.OutC)
	refDeconvForward(d, y, x)
	refDeconvBackward(d, dx, x, dout, dW, db)
	return y, dx, dW, db
}

// randDeconv draws a deconvolution geometry — kernel 3/4/5, stride 1/2/3,
// pad 0/1/2, H≠W with odd planes among them, 1 to 5 samples — and a batch
// for it; some bias entries are zero (the skipped add).
func randDeconv(rng *tensor.RNG) (d *Deconv2D, x, dout *tensor.Tensor, tag string) {
	inC, outC := 1+rng.Intn(4), 1+rng.Intn(5)
	k, stride, pad := 3+rng.Intn(3), 1+rng.Intn(3), rng.Intn(3)
	h, w := 2+rng.Intn(6), 3+rng.Intn(6)
	if h == w {
		w++
	}
	for (h-1)*stride+k-2*pad < 1 {
		pad--
	}
	n := 1 + rng.Intn(5)
	d = NewDeconv2D("d", inC, outC, k, stride, pad, rng)
	rng.FillNorm(d.Bias.W, 0, 1)
	d.Bias.W.Data[rng.Intn(outC)] = 0
	oh, ow := d.outHW(h, w)
	x = randBatch(rng, n, []int{inC, h, w})
	dout = randBatch(rng, n, []int{outC, oh, ow})
	return d, x, dout, fmt.Sprintf("deconv in %d out %d k %d s %d p %d %dx%d n %d", inC, outC, k, stride, pad, h, w, n)
}

// deconvTrials calls f on 40 random geometries (randDeconv), then on the
// climate decoder's k4/s2/p1 shape (8→16 channels, 16×16 → 32×32) at a
// batch of 70, whose whole-batch GEMMs are above gemmParallelMin.
func deconvTrials(rng *tensor.RNG, f func(trial int, d *Deconv2D, x, dout *tensor.Tensor, tag string)) {
	for trial := 0; trial < 40; trial++ {
		d, x, dout, tag := randDeconv(rng)
		f(trial, d, x, dout, tag)
	}
	const n = 70
	d := NewDeconv2D("d", 8, 16, 4, 2, 1, rng)
	rng.FillNorm(d.Bias.W, 0, 1)
	f(40, d, randBatch(rng, n, []int{8, 16, 16}), randBatch(rng, n, []int{16, 32, 32}), "deconv in 8 out 16 k 4 s 2 p 1 16x16 n 70")
}

// TestDeconvForwardBitwiseMatchesReference: the deconvolution forward,
// the strided adjoint written out of its phase planes with the bias last,
// is bitwise the per-sample Wᵀ·x and col2im, in both modes.
func TestDeconvForwardBitwiseMatchesReference(t *testing.T) {
	deconvTrials(tensor.NewRNG(4242), func(trial int, d *Deconv2D, x, dout *tensor.Tensor, tag string) {
		want, _, _, _ := refDeconv(d, x, dout)
		tag = fmt.Sprintf("trial %d (%s)", trial, tag)
		requireSameBits(t, tag+" eval y", run(d).Forward(x, false).Data, want.Data)
		requireSameBits(t, tag+" train y", run(d).Forward(x, true).Data, want.Data)
	})
}

// TestDeconvBackwardBitwiseMatchesReference holds the deconvolution's dx,
// dW and db to the per-sample reference — dy lowered sample by sample,
// dx one GEMM, dW and db accumulated in sample order — on one worker and
// two (the batch-70 case's weight gradient splits), with and without the
// input gradient.
func TestDeconvBackwardBitwiseMatchesReference(t *testing.T) {
	deconvTrials(tensor.NewRNG(2323), func(trial int, d *Deconv2D, x, dout *tensor.Tensor, tag string) {
		_, wantDx, wantDW, wantDb := refDeconv(d, x, dout)
		for _, workers := range []int{1, 2} {
			prev := tensor.SetWorkers(workers)
			tag := fmt.Sprintf("trial %d (%s) workers %d", trial, tag, workers)
			rd := run(d)
			d.Weight.Grad.Zero()
			d.Bias.Grad.Zero()
			rd.Forward(x, true)
			requireSameBits(t, tag+" dx", rd.Backward(dout).Data, wantDx.Data)
			requireSameBits(t, tag+" dW", d.Weight.Grad.Data, wantDW)
			requireSameBits(t, tag+" db", d.Bias.Grad.Data, wantDb)

			d.Weight.Grad.Zero()
			d.Bias.Grad.Zero()
			d.BackwardInto(&rd.st[0], nil, dout)
			requireSameBits(t, tag+" dW, no dx", d.Weight.Grad.Data, wantDW)
			requireSameBits(t, tag+" db, no dx", d.Bias.Grad.Data, wantDb)
			tensor.SetWorkers(prev)
		}
	})
}

// refMaxPool is the window scan that defines max pooling here: from −Inf,
// strict >, (ky,kx) order, windows clipped at the bottom and right edges.
func refMaxPool(x *tensor.Tensor, k, stride int) (y *tensor.Tensor, argmax []int32) {
	n, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := tensor.ConvOut(h, k, stride, 0), tensor.ConvOut(w, k, stride, 0)
	y = tensor.New(n, c, oh, ow)
	argmax = make([]int32, y.Len())
	for pl := 0; pl < n*c; pl++ {
		src := x.Data[pl*h*w : (pl+1)*h*w]
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				best, at := float32(math.Inf(-1)), int32(0)
				for ky := 0; ky < k && oy*stride+ky < h; ky++ {
					for kx := 0; kx < k && ox*stride+kx < w; kx++ {
						i := (oy*stride+ky)*w + ox*stride + kx
						if src[i] > best {
							best, at = src[i], int32(i)
						}
					}
				}
				y.Data[(pl*oh+oy)*ow+ox], argmax[(pl*oh+oy)*ow+ox] = best, at
			}
		}
	}
	return y, argmax
}

// TestMaxPoolMatchesWindowScan checks both pooling paths against the
// reference scan: even planes under 2×2/2 (the vector kernels), and odd
// heights and widths, 3×3 windows and strides 1 and 3 (the generic loop).
// Inputs carry NaN, ±0, ±Inf and runs of equal values; the backward pass
// must route through the same winners.
func TestMaxPoolMatchesWindowScan(t *testing.T) {
	special := []float32{float32(math.NaN()), 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1))}
	rng := tensor.NewRNG(99)
	geoms := []struct{ k, stride, h, w int }{
		{2, 2, 8, 8}, {2, 2, 4, 34}, {2, 2, 2, 2}, {2, 2, 6, 70}, // kernels, with and without tails
		{2, 2, 7, 8}, {2, 2, 8, 5}, {2, 2, 5, 5}, // odd planes
		{3, 3, 9, 9}, {3, 2, 7, 9}, {2, 1, 5, 6}, {1, 1, 3, 4}, // other windows
	}
	for _, g := range geoms {
		for draw := 0; draw < 2; draw++ {
			x := randBatch(rng, 3, []int{2, g.h, g.w})
			for i := range x.Data {
				switch rng.Intn(5) {
				case 0:
					x.Data[i] = special[rng.Intn(len(special))]
				case 1:
					if i > 0 {
						x.Data[i] = x.Data[i-1]
					}
				}
			}
			tag := fmt.Sprintf("pool k%d s%d %dx%d draw %d", g.k, g.stride, g.h, g.w, draw)
			p := run(NewMaxPool2D("p", g.k, g.stride))
			wantY, wantAt := refMaxPool(x, g.k, g.stride)
			requireSameBits(t, tag+" eval", p.Forward(x, false).Data, wantY.Data)
			requireSameBits(t, tag+" train", p.Forward(x, true).Data, wantY.Data)
			for i, at := range wantAt {
				if got := p.st[0].Argmax[i]; got != at {
					t.Fatalf("%s: winner %d at %d, reference %d", tag, i, got, at)
				}
			}
		}
	}
}

// TestBackwardParamsMatchesBackward runs the same network and batch through
// Plan.Backward and Plan.BackwardParams and requires every parameter
// gradient to agree bitwise and every gradDone notification to arrive in
// the same order — with the pass starting at a convolution, and starting
// at the boundary of a frozen prefix.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	for _, frozen := range [][]string{nil, {"c1"}} {
		full, lean := planTestNet(61), planTestNet(61)
		full.Freeze(frozen...)
		lean.Freeze(frozen...)
		rng := tensor.NewRNG(5)
		x := randBatch(rng, 5, full.InShape)
		dout := randBatch(rng, 5, []int{2})
		var fullOrder, leanOrder []int

		pf := Compile(full, 5, true, nil)
		pf.Forward(x)
		if dx := pf.BackwardStream(dout, func(l int) { fullOrder = append(fullOrder, l) }); dx == nil {
			t.Fatal("BackwardStream returned no input gradient")
		}
		pl := Compile(lean, 5, true, nil)
		pl.Forward(x)
		pl.BackwardParams(dout, func(l int) { leanOrder = append(leanOrder, l) })

		fp, lp := full.Params(), lean.Params()
		for i := range fp {
			if fp[i].Grad == nil {
				continue // frozen
			}
			requireSameBits(t, fmt.Sprintf("frozen %v: %s", frozen, fp[i].Name), lp[i].Grad.Data, fp[i].Grad.Data)
		}
		if fmt.Sprint(fullOrder) != fmt.Sprint(leanOrder) {
			t.Fatalf("frozen %v: gradDone order %v, want %v", frozen, leanOrder, fullOrder)
		}
	}
}

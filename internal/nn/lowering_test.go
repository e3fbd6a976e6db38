package nn

import (
	"fmt"
	"math"
	"testing"

	"deep15pf/internal/tensor"
)

// The references below are the lowering the layers used before samples were
// batched into one matrix: one sample at a time, index-by-index im2col and
// col2im, one GEMM per sample, bias added in place afterwards. They are the
// definition the batched, kernel-backed paths must reproduce bit for bit.

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

// refConv runs the per-sample forward and backward of c over x and dout and
// returns y, dx, dW and db.
func refConv(c *Conv2D, x, dout *tensor.Tensor) (y, dx *tensor.Tensor, dW, db []float32) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := tensor.ConvOut(h, c.KH, c.Stride, c.Pad), tensor.ConvOut(w, c.KW, c.Stride, c.Pad)
	k, cols := c.InC*c.KH*c.KW, oh*ow
	y = tensor.New(n, c.OutC, oh, ow)
	dx = tensor.New(x.Shape...)
	dW, db = make([]float32, c.OutC*k), make([]float32, c.OutC)
	dcol := make([]float32, k*cols)
	inStride, outStride := c.InC*h*w, c.OutC*cols
	for s := 0; s < n; s++ {
		col := refIm2col(x.Data[s*inStride:(s+1)*inStride], c.InC, h, w, c.KH, c.Stride, c.Pad)
		ys := y.Data[s*outStride : (s+1)*outStride]
		tensor.Gemm(false, false, c.OutC, cols, k, 1, c.Weight.W.Data, col, 0, ys)
		refAddBias(ys, c.Bias.W.Data, cols)
		dy := dout.Data[s*outStride : (s+1)*outStride]
		tensor.Gemm(false, true, c.OutC, k, cols, 1, dy, col, 1, dW)
		for f := 0; f < c.OutC; f++ {
			var sum float32
			for _, v := range dy[f*cols : (f+1)*cols] {
				sum += v
			}
			db[f] += sum
		}
		tensor.Gemm(true, false, k, cols, c.OutC, 1, c.Weight.W.Data, dy, 0, dcol)
		refCol2im(dcol, c.InC, h, w, c.KH, c.Stride, c.Pad, dx.Data[s*inStride:(s+1)*inStride])
	}
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

// withColBudget runs f with both convolution column budgets set to floats.
func withColBudget(floats int, f func()) {
	oldEval, oldTrain := colBudget, trainColBudget
	colBudget, trainColBudget = floats, floats
	defer func() { colBudget, trainColBudget = oldEval, oldTrain }()
	f()
}

// TestConvLoweringBitwiseMatchesPerSampleReference draws random conv
// geometries — kernel 1/3/5, stride 1/2/3, pad 0/1/2, H≠W, channel counts on
// and off the GEMM's 4-row tile — and holds train forward, eval forward,
// dx, dW and db bitwise to the per-sample reference, under a budget of one
// sample (the beyond-budget path: re-lowered in backward), a budget whose
// chunk does not divide the batch (chunk tails), and one that keeps the
// whole batch lowered; serial and with the kernels split three ways.
func TestConvLoweringBitwiseMatchesPerSampleReference(t *testing.T) {
	rng := tensor.NewRNG(20260926)
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
		wantY, wantDx, wantDW, wantDb := refConv(c, x, dout)

		perSample := inC * k * k * oh * ow
		name := fmt.Sprintf("trial %d (in %d out %d k %d s %d p %d %dx%d n %d)", trial, inC, outC, k, stride, pad, h, w, n)
		for _, budget := range []int{1, perSample*2 + 1, perSample * n} {
			for _, workers := range []int{1, 3} {
				prev := tensor.SetWorkers(workers)
				withColBudget(budget, func() {
					tag := fmt.Sprintf("%s budget %d workers %d", name, budget, workers)
					rc := run(c)
					requireSameBits(t, tag+" eval y", rc.Forward(x, false).Data, wantY.Data)
					c.Weight.Grad.Zero()
					c.Bias.Grad.Zero()
					requireSameBits(t, tag+" train y", rc.Forward(x, true).Data, wantY.Data)
					if kept := rc.st[0].Lowered; kept != (max(budget/perSample, 1) >= n) {
						t.Fatalf("%s: lowering kept = %v", tag, kept)
					}
					requireSameBits(t, tag+" dx", rc.Backward(dout).Data, wantDx.Data)
					requireSameBits(t, tag+" dW", c.Weight.Grad.Data, wantDW)
					requireSameBits(t, tag+" db", c.Bias.Grad.Data, wantDb)

					// Without the input gradient the parameter gradients
					// are the same, and a kept lowering survives for a
					// second pass over the same forward.
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
				})
				tensor.SetWorkers(prev)
			}
		}
	}
}

// refDeconv runs the per-sample forward and backward of d over x and dout —
// the adjoint convolution's reference lowerings, one GEMM per sample — and
// returns y, dx, dW and db.
func refDeconv(d *Deconv2D, x, dout *tensor.Tensor) (y, dx *tensor.Tensor, dW, db []float32) {
	n, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	oh, ow := d.outHW(h, w)
	k, cols, plane := d.OutC*d.KH*d.KW, h*w, oh*ow
	y = tensor.New(n, d.OutC, oh, ow)
	dx = tensor.New(x.Shape...)
	dW, db = make([]float32, d.InC*k), make([]float32, d.OutC)
	col := make([]float32, k*cols)
	for s := 0; s < n; s++ {
		xs := x.Data[s*d.InC*cols : (s+1)*d.InC*cols]
		tensor.Gemm(true, false, k, cols, d.InC, 1, d.Weight.W.Data, xs, 0, col)
		ys := y.Data[s*d.OutC*plane : (s+1)*d.OutC*plane]
		refCol2im(col, d.OutC, oh, ow, d.KH, d.Stride, d.Pad, ys)
		refAddBias(ys, d.Bias.W.Data, plane)

		dy := dout.Data[s*d.OutC*plane : (s+1)*d.OutC*plane]
		dcol := refIm2col(dy, d.OutC, oh, ow, d.KH, d.Stride, d.Pad)
		tensor.Gemm(false, false, d.InC, cols, k, 1, d.Weight.W.Data, dcol, 0, dx.Data[s*d.InC*cols:(s+1)*d.InC*cols])
		tensor.Gemm(false, true, d.InC, k, cols, 1, xs, dcol, 1, dW)
		for f := 0; f < d.OutC; f++ {
			var sum float32
			for _, v := range dy[f*plane : (f+1)*plane] {
				sum += v
			}
			db[f] += sum
		}
	}
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

// deconvBudgets are the column budgets a deconvolution test runs under: one
// sample at a time, chunks of two (so a batch of three or five splits
// unevenly), and the whole batch in one matrix.
func deconvBudgets(d *Deconv2D, x *tensor.Tensor) []int {
	perSample := d.OutC * d.KH * d.KW * x.Shape[2] * x.Shape[3]
	return []int{1, perSample*2 + 1, perSample * x.Shape[0]}
}

// TestDeconvForwardBitwiseMatchesReference covers col2im's other caller:
// the deconvolution forward is Wᵀ·x scattered through col2im — the
// strip-add kernel at stride 1, the strided add beyond — one GEMM per chunk
// of samples, in both modes and whatever the chunk.
func TestDeconvForwardBitwiseMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(4242)
	for trial := 0; trial < 40; trial++ {
		d, x, dout, tag := randDeconv(rng)
		want, _, _, _ := refDeconv(d, x, dout)
		for _, budget := range deconvBudgets(d, x) {
			withColBudget(budget, func() {
				tag := fmt.Sprintf("trial %d (%s) budget %d", trial, tag, budget)
				requireSameBits(t, tag+" eval y", run(d).Forward(x, false).Data, want.Data)
				requireSameBits(t, tag+" train y", run(d).Forward(x, true).Data, want.Data)
			})
		}
	}
}

// TestDeconvBackwardBitwiseMatchesReference holds the deconvolution's dx,
// dW and db to the per-sample reference: dy lowered sample by sample into
// one chunk-wide matrix, dx one GEMM over the chunk, dW and db accumulated
// in sample order — inline and with the kernels split two ways, with and
// without the input gradient.
func TestDeconvBackwardBitwiseMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(2323)
	for trial := 0; trial < 40; trial++ {
		d, x, dout, tag := randDeconv(rng)
		_, wantDx, wantDW, wantDb := refDeconv(d, x, dout)
		for _, budget := range deconvBudgets(d, x) {
			for _, workers := range []int{1, 2} {
				prev := tensor.SetWorkers(workers)
				withColBudget(budget, func() {
					tag := fmt.Sprintf("trial %d (%s) budget %d workers %d", trial, tag, budget, workers)
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
				})
				tensor.SetWorkers(prev)
			}
		}
	}
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
		for _, workers := range []int{1, 3} {
			prev := tensor.SetWorkers(workers)
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
			tag := fmt.Sprintf("pool k%d s%d %dx%d workers %d", g.k, g.stride, g.h, g.w, workers)
			p := run(NewMaxPool2D("p", g.k, g.stride))
			wantY, wantAt := refMaxPool(x, g.k, g.stride)
			requireSameBits(t, tag+" eval", p.Forward(x, false).Data, wantY.Data)
			requireSameBits(t, tag+" train", p.Forward(x, true).Data, wantY.Data)
			for i, at := range wantAt {
				if got := p.st[0].Argmax[i]; got != at {
					t.Fatalf("%s: winner %d at %d, reference %d", tag, i, got, at)
				}
			}
			tensor.SetWorkers(prev)
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

// TestLargePassesSplitAcrossWorkersBitwise reaches the ParallelFor side of
// the memory-bound passes, which only engages from parallelMin floats: a
// bulk-scoring-sized batch through conv (lowering and scatter), ReLU and
// their backward, split three ways, against the same passes run inline;
// then through a deconvolution, against its per-sample reference.
func TestLargePassesSplitAcrossWorkersBitwise(t *testing.T) {
	rng := tensor.NewRNG(8)
	const n = 70
	c := NewConv2D("c", 3, 16, 3, 1, 1, rng)
	rng.FillNorm(c.Bias.W, 0, 1)
	rc, rr := run(c), run(NewReLU("r"))
	x := randBatch(rng, n, []int{3, 32, 32})
	dout := randBatch(rng, n, []int{16, 32, 32})
	if c.OutC*n*32*32 < parallelMin {
		t.Fatal("batch too small to reach the parallel passes")
	}
	type result struct{ y, a, da, dx, dW []float32 }
	pass := func(workers int) result {
		prev := tensor.SetWorkers(workers)
		defer tensor.SetWorkers(prev)
		c.Weight.Grad.Zero()
		y := rc.Forward(x, true)
		a := rr.Forward(y, true)
		da := rr.Backward(dout)
		dx := rc.Backward(da)
		return result{y.Data, a.Data, da.Data, dx.Data, append([]float32(nil), c.Weight.Grad.Data...)}
	}
	want, got := pass(1), pass(3)
	requireSameBits(t, "conv y", got.y, want.y)
	requireSameBits(t, "relu y", got.a, want.a)
	requireSameBits(t, "relu dx", got.da, want.da)
	requireSameBits(t, "conv dx", got.dx, want.dx)
	requireSameBits(t, "conv dW", got.dW, want.dW)
	wantY, _, _, _ := refConv(c, x, dout)
	requireSameBits(t, "conv y vs per-sample reference", got.y, wantY.Data)

	// The deconvolution's side of the same passes: the per-sample col2im
	// scatter, the lowering of dy and the NCHW scatter of dx.
	d := NewDeconv2D("d", 8, 16, 4, 2, 1, rng)
	rng.FillNorm(d.Bias.W, 0, 1)
	rd := run(d)
	dxIn := randBatch(rng, n, []int{8, 16, 16})
	if d.OutC*n*32*32 < parallelMin {
		t.Fatal("batch too small to reach the deconvolution's parallel passes")
	}
	wantDY, wantDDx, wantDDW, _ := refDeconv(d, dxIn, dout)
	prev := tensor.SetWorkers(3)
	defer tensor.SetWorkers(prev)
	d.Weight.Grad.Zero()
	requireSameBits(t, "deconv y", rd.Forward(dxIn, true).Data, wantDY.Data)
	requireSameBits(t, "deconv dx", rd.Backward(dout).Data, wantDDx.Data)
	requireSameBits(t, "deconv dW", d.Weight.Grad.Data, wantDDW)
}

package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"deep15pf/internal/climate"
	"deep15pf/internal/cluster"
	"deep15pf/internal/data"
	"deep15pf/internal/hep"
	"deep15pf/internal/nn"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

// Fig5 reproduces the single-node breakdown (Figs 5a/5b): per-layer
// runtime and flop rate for both networks, plus the solver-update and
// input-I/O components the paper calls out (HEP solver ≈12.5% of runtime;
// climate I/O ≈13%). All numbers are real measurements of our kernels on
// this host. Quick mode shrinks the spatial size (layer-time *shares* are
// spatially invariant; absolute TF/s obviously reflect this host, not a
// KNL node).
func Fig5(opts Options) Report {
	// Climate sizes must be divisible by 32 (five stride-2 levels).
	hepSize, climSize, batch := 224, 192, 8
	if opts.Quick {
		hepSize, climSize, batch = 64, 64, 2
	}
	body := "HEP network (cf. Fig 5a; paper: 1.90 TFLOP/s overall at batch 8 on one KNL node)\n"
	body += fig5HEP(opts, hepSize, batch)
	body += "\nClimate network (cf. Fig 5b; paper: 2.09 TFLOP/s overall at batch 8)\n"
	body += fig5Climate(opts, climSize, batch)
	body += "\nShape checks carried over from the paper: convolution/deconvolution layers dominate\n" +
		"runtime; layers with few channels or small spatial extents run at lower flop rates than\n" +
		"fat mid-network layers (the DeepBench small-operand effect — milder on this host's\n" +
		"scalar GEMM than on KNL's 16-lane AVX-512 units); the climate I/O share exceeds the\n" +
		"HEP I/O share (16-channel samples vs 3-channel), as in the paper's 13% vs 2%.\n"
	body += "\nInput-pipeline A/B (blocking reader vs double-buffered prefetch), modelled\n"
	body += fig5IngestAB(opts)
	return Report{ID: "fig5", Title: "Single-node runtime and flop-rate breakdown (Fig 5)", Body: body}
}

// fig5IngestAB asks the calibrated cluster model how much input I/O a
// blocking reader exposes at paper scale on both networks (the shares
// anchor to Fig 5's 2%/13%) and how much the double buffer every trainer
// runs leaves on the critical path.
func fig5IngestAB(opts Options) string {
	sim := newTable("modelled at paper scale", "io s/iter", "exposed s/iter", "share of iter")
	m := cluster.CoriPhaseII()
	for _, p := range []cluster.NetProfile{cluster.HEPProfile(), cluster.ClimateProfile()} {
		for _, prefetch := range []bool{false, true} {
			r := cluster.Simulate(m, p, cluster.RunConfig{
				Nodes: 1, Groups: 1, BatchPerGroup: 8, Iterations: 10,
				Seed: opts.Seed, IngestIO: true, PrefetchIngest: prefetch,
			})
			n := float64(len(r.IterDurations[0]))
			name := p.Name + " blocking"
			if prefetch {
				name = p.Name + " prefetched"
			}
			sim.addf("%s|%.3f|%.3f|%.1f%%", name, r.IOSeconds/n, r.ExposedIOSeconds/n,
				100*r.ExposedIOSeconds/r.WallTime)
		}
	}
	return sim.String() +
		"(blocking shares calibrated to the paper's ≈2% HEP / ≈13% climate; the double buffer\n" +
		"hides every steady-state batch-8 read behind compute on both networks — only\n" +
		"iteration 0's warmup stage stays exposed)\n"
}

// layerRow is one measured component: a layer with its forward+backward
// wall time and flops for the batch, or an extra (solver, I/O) without flops.
type layerRow struct {
	name  string
	dur   time.Duration
	flops int64
}

// timeLayers measures every layer of a stack as its own single-layer
// training plan at the stack's shapes — the method benchmark/layer_nn.go
// uses for its Fig. 5 rows: one warm-up step, then one timed forward and
// backward over random activations and gradients.
func timeLayers(layers []nn.Layer, in []int, batch int, rng *tensor.RNG) []layerRow {
	rows := make([]layerRow, len(layers))
	for i, l := range layers {
		plan := nn.Compile(nn.NewNetwork(l.Name(), in...).Add(l), batch, true, nil)
		x := tensor.New(append([]int{batch}, in...)...)
		rng.FillNorm(x, 0, 1)
		rows[i] = layerRow{name: l.Name(), flops: l.FLOPs(in).Total() * int64(batch)}
		in = l.OutShape(in)
		dout := tensor.New(append([]int{batch}, in...)...)
		rng.FillNorm(dout, 0, 1)
		plan.Forward(x)
		plan.Backward(dout)
		t0 := time.Now()
		plan.Forward(x)
		plan.Backward(dout)
		rows[i].dur = time.Since(t0)
	}
	return rows
}

func renderBreakdown(rows, extras []layerRow) string {
	// Top time consumers first, as in the figure.
	sorted := append([]layerRow(nil), rows...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].dur > sorted[j].dur })
	var grand time.Duration
	var flops int64
	for _, r := range rows {
		grand += r.dur
		flops += r.flops
	}
	for _, e := range extras {
		grand += e.dur
	}
	t := newTable("component", "time", "share", "GFLOP/s")
	for _, r := range sorted[:min(8, len(sorted))] {
		t.addf("%s|%.1f ms|%.1f%%|%.2f", r.name, r.dur.Seconds()*1e3,
			100*float64(r.dur)/float64(grand), float64(r.flops)/max(r.dur.Seconds(), 1e-9)/1e9)
	}
	for _, e := range extras {
		t.addf("%s|%.1f ms|%.1f%%|-", e.name, e.dur.Seconds()*1e3,
			100*float64(e.dur)/float64(grand))
	}
	t.addf("TOTAL|%.1f ms|100%%|%.2f", grand.Seconds()*1e3,
		float64(flops)/grand.Seconds()/1e9)
	return t.String()
}

func fig5HEP(opts Options, size, batch int) string {
	rng := tensor.NewRNG(opts.Seed)
	cfg := hep.PaperConfig()
	cfg.ImageSize = size
	net := hep.BuildNet(cfg, rng)
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(size), batch, 0.5, rng)
	rows := timeLayers(net.Layers, net.InShape, batch, rng)

	// Solver component: the ADAM update on the full 594k-parameter model
	// ("about 12.5% of the runtime is spent in the solver update routine",
	// §VI-A). Parameter count is spatial-size independent, so this is the
	// paper-sized measurement even in quick mode.
	solver := opt.NewAdam(1e-3)
	solver.Step(net.Params()) // warmup/state allocation
	t0 := time.Now()
	solver.Step(net.Params())
	solverDur := time.Since(t0)

	ioDur := measureShardIO(ds.Images.Data[:batch*3*size*size], batch, 3*size*size)
	extras := []layerRow{
		{name: "solver (ADAM)", dur: solverDur},
		{name: "I/O (shard read)", dur: ioDur},
	}
	return fmt.Sprintf("(input %dx%dx3, batch %d)\n", size, size, batch) +
		renderBreakdown(rows, extras)
}

func fig5Climate(opts Options, size, batch int) string {
	rng := tensor.NewRNG(opts.Seed + 1)
	var cfg climate.ModelConfig
	if opts.Quick {
		// Paper topology (9 convs + 5 deconvs) at reduced width so the
		// quick pass stays in budget; layer-share shapes are preserved.
		cfg = climate.ModelConfig{
			Name: "climate-fig5", Size: size,
			EncChannels: []int{16, 48, 96, 128, 160, 192},
			EncStrides:  []int{2, 2, 2, 2, 2, 1},
			DecChannels: []int{128, 96, 48, 24, climate.NumChannels},
			WithDecoder: true,
		}
	} else {
		cfg = climate.PaperConfig()
		cfg.Size = size
	}
	net := climate.BuildNet(cfg, rng)
	ds := climate.GenerateDataset(climate.DefaultGenConfig(size), batch, rng)
	idx := make([]int, batch)
	for i := range idx {
		idx[i] = i
	}
	x, _ := ds.Batch(idx)

	// The climate net is not a single Sequential: time the encoder's
	// layers, the three score heads as one row over the feature grid, and
	// the decoder's layers.
	feat := net.Encoder.OutShape()
	rows := timeLayers(net.Encoder.Layers, net.Encoder.InShape, batch, rng)
	heads := layerRow{name: "score_heads"}
	for _, l := range []nn.Layer{net.ConfHead, net.ClassHead, net.BoxHead} {
		h := timeLayers([]nn.Layer{l}, feat, batch, rng)[0]
		heads.dur += h.dur
		heads.flops += h.flops
	}
	rows = append(rows, heads)
	if net.Decoder != nil {
		rows = append(rows, timeLayers(net.Decoder.Layers, feat, batch, rng)...)
	}

	solver := opt.NewSGD(0.01, 0.9)
	solver.Step(net.Params())
	t0 := time.Now()
	solver.Step(net.Params())
	solverDur := time.Since(t0)

	per := climate.NumChannels * size * size
	ioDur := measureShardIO(x.Data, batch, per)
	extras := []layerRow{
		{name: "solver (SGD+mom)", dur: solverDur},
		{name: "I/O (shard read)", dur: ioDur},
	}
	return fmt.Sprintf("(input %dx%dx16, batch %d, %s)\n", size, size, batch, cfg.Name) +
		renderBreakdown(rows, extras)
}

// measureShardIO writes the batch to a shard file and measures reading it
// back — the honest stand-in for the paper's single-threaded HDF5 input
// path (§VI-A's I/O component).
func measureShardIO(features []float32, count, featLen int) time.Duration {
	dir, err := os.MkdirTemp("", "d15p-io")
	if err != nil {
		return 0
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "batch.shard")
	if err := data.WriteShard(path, count, featLen, 0, features, nil); err != nil {
		return 0
	}
	r, err := data.OpenShard(path)
	if err != nil {
		return 0
	}
	defer r.Close()
	buf := make([]float32, count*featLen)
	idx := make([]int, count)
	for i := range idx {
		idx[i] = i
	}
	_ = r.ReadBatch(idx, buf, nil) // warm the page cache
	t0 := time.Now()
	if err := r.ReadBatch(idx, buf, nil); err != nil {
		return 0
	}
	return time.Since(t0)
}

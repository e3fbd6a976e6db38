package bulk

import (
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"deep15pf/internal/data"
	"deep15pf/internal/nn"
	"deep15pf/internal/obs"
	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

// TestEngineScoreMatchesDirect pins the engine's correctness contract on
// both precisions: pipelined, shared-output bulk scoring must be bitwise
// the naive read-batch/Infer/SoftmaxTop1 loop, uneven tail batch included.
func TestEngineScoreMatchesDirect(t *testing.T) {
	net, ds := trainTiny(t, 70, 6)
	ss := unlabeledShards(t, ds, 4)
	for _, prec := range []serve.Precision{serve.Float32, serve.Int8} {
		lm := loadTiny(t, net, ds, prec)
		reg := obs.NewRegistry()
		eng, err := NewEngine(lm, Config{Batch: 24, Metrics: reg})
		if err != nil {
			t.Fatalf("%v: NewEngine: %v", prec, err)
		}
		var p Predictions
		res, err := eng.Score(ss, &p)
		if err != nil {
			t.Fatalf("%v: Score: %v", prec, err)
		}
		if res.Samples != 70 || res.Batches != 3 {
			t.Fatalf("%v: scored %d samples in %d batches, want 70 in 3", prec, res.Samples, res.Batches)
		}

		rep, err := lm.NewReplica()
		if err != nil {
			t.Fatal(err)
		}
		wantConf, wantLabel := directTop1(t, rep, ss, 24)
		for i := range wantConf {
			if p.Conf[i] != wantConf[i] || p.Label[i] != wantLabel[i] {
				t.Fatalf("%v: sample %d: bulk (%v, %d) vs direct (%v, %d)",
					prec, i, p.Conf[i], p.Label[i], wantConf[i], wantLabel[i])
			}
		}
		if got := reg.Counter("bulk_samples").Value(); got != 70 {
			t.Fatalf("%v: bulk_samples counter %d, want 70", prec, got)
		}

		// Predictions buffers are reused across runs, not reallocated.
		c0, l0 := &p.Conf[0], &p.Label[0]
		if _, err := eng.Score(ss, &p); err != nil {
			t.Fatalf("%v: second Score: %v", prec, err)
		}
		if &p.Conf[0] != c0 || &p.Label[0] != l0 {
			t.Fatalf("%v: Predictions reallocated on reuse", prec)
		}
	}
}

// TestEngineWarmPathZeroAlloc is the per-tile contract under the whole-Score
// one: once a Score has warmed the engine, a lane's tile step (forward +
// in-place top-1) never touches the allocator.
func TestEngineWarmPathZeroAlloc(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	net, ds := trainTiny(t, 64, 3)
	ss := unlabeledShards(t, ds, 2)
	eng, err := NewEngine(loadTiny(t, net, ds, serve.Float32), Config{Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	var p Predictions
	if _, err := eng.Score(ss, &p); err != nil {
		t.Fatal(err)
	}

	x := tensor.New(append([]int{nn.InferTile}, eng.inShape...)...)
	tensor.NewRNG(7).FillNorm(x, 0, 1)
	conf := make([]float32, nn.InferTile)
	label := make([]int32, nn.InferTile)
	l := eng.lanes[0]
	if allocs := testing.AllocsPerRun(50, func() {
		if err := l.score(x.Data, conf, label); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm lane tile step allocates %.1f times per tile, want 0", allocs)
	}
}

// TestEngineWarmPathZeroAllocAboveTile is the same contract at a batch
// above one tile: an 83-sample batch at Config.Batch 96 runs as tiles of
// 32, 32 and 19 on the lane, and once each has run, scoring the whole
// batch tile by tile leaves the allocator untouched on both precisions.
func TestEngineWarmPathZeroAllocAboveTile(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	net, ds := trainTiny(t, 16, 1)
	for _, prec := range []serve.Precision{serve.Float32, serve.Int8} {
		eng, err := NewEngine(loadTiny(t, net, ds, prec), Config{Batch: 96})
		if err != nil {
			t.Fatal(err)
		}
		const n = 83
		x := tensor.New(append([]int{n}, eng.inShape...)...)
		tensor.NewRNG(7).FillNorm(x, 0, 1)
		conf := make([]float32, n)
		label := make([]int32, n)
		l := eng.lanes[0]
		batch := func() {
			for lo := 0; lo < n; lo += nn.InferTile {
				hi := min(lo+nn.InferTile, n)
				if err := l.score(x.Data[lo*eng.inLen:hi*eng.inLen], conf[lo:hi], label[lo:hi]); err != nil {
					t.Fatal(err)
				}
			}
		}
		batch()
		if allocs := testing.AllocsPerRun(20, batch); allocs != 0 {
			t.Fatalf("%v: warm tiled batch allocates %.1f times, want 0", prec, allocs)
		}
	}
}

// TestEngineScoreAllocsFlatInSetSize is the hot-path contract the headline
// numbers depend on, over a whole Score call: once the lanes' plans and the
// staging ring are warm, scoring a set of 16 batches allocates no more than
// scoring 2, on both precisions and at one, two and four workers. What a
// call allocates (the lanes, the pipeline) is paid once per call; nothing
// is paid per batch or per tile.
func TestEngineScoreAllocsFlatInSetSize(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	const batch = 64
	net, ds := trainTiny(t, 16*batch, 1)
	paths, err := ds.SaveShards(t.TempDir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	large, err := data.OpenShardSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer large.Close()
	small, err := data.OpenShardSet(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer small.Close()
	if small.Count != 2*batch {
		t.Fatalf("first shard holds %d samples, want %d", small.Count, 2*batch)
	}
	for _, prec := range []serve.Precision{serve.Float32, serve.Int8} {
		lm := loadTiny(t, net, ds, prec)
		for _, workers := range []int{1, 2, 4} {
			tensor.SetWorkers(workers)
			eng, err := NewEngine(lm, Config{Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			var p Predictions
			score := func(ss *data.ShardSet) func() {
				return func() {
					if _, err := eng.Score(ss, &p); err != nil {
						t.Fatal(err)
					}
				}
			}
			// The first call mints the lanes and fills the ring. Which lane
			// runs which tile is up to the scheduler, so a lane may not have
			// run one yet: compile every lane's tile plan here, or its first
			// tile would compile it inside a measured call.
			score(large)()
			tile := tensor.New(append([]int{nn.InferTile}, eng.inShape...)...)
			for _, l := range eng.lanes {
				l.rep.InferShared(tile)
			}
			a2 := testing.AllocsPerRun(20, score(small))
			a16 := testing.AllocsPerRun(20, score(large))
			if a16 > a2 {
				t.Fatalf("%v workers=%d: a warm Score allocates %.0f objects over 16 batches, %.0f over 2", prec, workers, a16, a2)
			}
		}
	}
}

// TestEngineStagesTiles: the prefetch ring stages what a lane runs. After
// a warm Score at any worker count and at batches below, at and above the
// tile, the ring is lanes + 2 slots of exactly one tile each: staging does
// not grow with Config.Batch.
func TestEngineStagesTiles(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	net, ds := trainTiny(t, 203, 1)
	ss := unlabeledShards(t, ds, 3)
	lm := loadTiny(t, net, ds, serve.Float32)
	for _, workers := range []int{1, 2, 4} {
		tensor.SetWorkers(workers)
		for _, batch := range []int{20, 80, 256, 1024} {
			eng, err := NewEngine(lm, Config{Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			var p Predictions
			for range 2 {
				if _, err := eng.Score(ss, &p); err != nil {
					t.Fatalf("workers=%d batch=%d: Score: %v", workers, batch, err)
				}
			}
			staged := 0
			for _, s := range eng.slots {
				staged += cap(s.x)
			}
			if want := (workers + 2) * nn.InferTile * eng.inLen; len(eng.lanes) != workers || staged != want {
				t.Fatalf("workers=%d batch=%d: %d lanes stage %d floats in %d slots, want %d lanes and %d floats",
					workers, batch, len(eng.lanes), staged, len(eng.slots), workers, want)
			}
		}
	}
}

// TestEngineTiledScoreMatchesNaiveLoop holds the engine's lanes to the
// naive loop at a batch of one tile, on both precisions and one, two and
// four kernel workers. 203 samples at batch 80 is a multiple of neither the
// batch nor the tile: the last batch is 43, its last tile 11. At batch 20,
// below one tile, every batch is one tile, so the lanes hold several
// batches at once and release them out of order.
func TestEngineTiledScoreMatchesNaiveLoop(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	net, ds := trainTiny(t, 203, 6)
	ss := unlabeledShards(t, ds, 3)
	for _, prec := range []serve.Precision{serve.Float32, serve.Int8} {
		lm := loadTiny(t, net, ds, prec)
		tensor.SetWorkers(1)
		rep, err := lm.NewReplica()
		if err != nil {
			t.Fatal(err)
		}
		wantConf, wantLabel := directTop1(t, rep, ss, 7)
		for _, batch := range []int{80, 20} {
			for _, workers := range []int{1, 2, 4} {
				tensor.SetWorkers(workers)
				eng, err := NewEngine(lm, Config{Batch: batch})
				if err != nil {
					t.Fatal(err)
				}
				// A caller's Label shorter than its Conf must grow on its own.
				p := Predictions{Conf: make([]float32, 203), Label: make([]int32, 5)}
				res, err := eng.Score(ss, &p)
				if err != nil {
					t.Fatalf("%v batch=%d workers=%d: Score: %v", prec, batch, workers, err)
				}
				if want := (203 + batch - 1) / batch; res.Samples != 203 || res.Batches != want {
					t.Fatalf("%v batch=%d workers=%d: scored %d samples in %d batches, want 203 in %d", prec, batch, workers, res.Samples, res.Batches, want)
				}
				for i := range wantConf {
					if p.Conf[i] != wantConf[i] || p.Label[i] != wantLabel[i] {
						t.Fatalf("%v batch=%d workers=%d: sample %d: bulk (%v, %d) vs naive (%v, %d)",
							prec, batch, workers, i, p.Conf[i], p.Label[i], wantConf[i], wantLabel[i])
					}
				}
			}
		}
	}
}

// TestEngineRejectsNaN: non-finite logits (here from a bit-rotted
// checkpoint — NaN input pixels get flushed by ReLU, corrupt weights do
// not) must fail the whole run loudly, never become pseudo-labels. Every
// tile fails, on as many lanes as there are workers; the error names the
// first tile's sample range whichever lane failed first, and no lane or
// stager outlives the call.
func TestEngineRejectsNaN(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	net, ds := trainTiny(t, 64, 1)
	params := net.Params()
	last := params[len(params)-1].W.Data
	for j := range last {
		last[j] = float32(math.NaN())
	}
	ss := unlabeledShards(t, ds, 2)

	lm := loadTiny(t, net, ds, serve.Float32)
	for _, workers := range []int{1, 2, 4} {
		tensor.SetWorkers(workers)
		eng, err := NewEngine(lm, Config{Batch: 8})
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		var p Predictions
		_, err = eng.Score(ss, &p)
		if err == nil || !strings.Contains(err.Error(), "non-finite") || !strings.Contains(err.Error(), "samples [0,8)") {
			t.Fatalf("workers=%d: NaN logits scored without naming the first bad range: %v", workers, err)
		}
		// A goroutine that has called wg.Done or closed its channels may
		// take a moment to be gone.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Fatalf("workers=%d: %d goroutines after the failed Score, %d before", workers, n, before)
		}
	}
}

// TestEngineShapeAndEmptyErrors: mismatched shard geometry and empty sets
// are configuration errors, not zero-sample successes.
func TestEngineShapeAndEmptyErrors(t *testing.T) {
	net, ds := trainTiny(t, 16, 1)
	lm := loadTiny(t, net, ds, serve.Float32)
	eng, err := NewEngine(lm, Config{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	feats := make([]float32, 4*7)
	paths, err := data.WriteShards(dir, 1, 4, 7, 0, feats, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := data.OpenShardSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	var p Predictions
	if _, err := eng.Score(ss, &p); err == nil || !strings.Contains(err.Error(), "model wants") {
		t.Fatalf("wrong feature length scored: %v", err)
	}
}

// TestWritePseudoShardsThreshold pins the factory output stage: only
// samples at or above threshold survive, features and labels round-trip
// bit-exactly, and an impossible threshold writes nothing at all.
func TestWritePseudoShardsThreshold(t *testing.T) {
	net, ds := trainTiny(t, 48, 6)
	ss := unlabeledShards(t, ds, 3)
	lm := loadTiny(t, net, ds, serve.Float32)
	eng, err := NewEngine(lm, Config{Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	var p Predictions
	if _, err := eng.Score(ss, &p); err != nil {
		t.Fatal(err)
	}

	// Threshold midway between the confidence extremes so both the keep
	// and drop branches are exercised (softmax spread is nonzero on a
	// trained net).
	lo, hi := p.Conf[0], p.Conf[0]
	for _, c := range p.Conf {
		lo, hi = min(lo, c), max(hi, c)
	}
	thr := (lo + hi) / 2
	dir := t.TempDir()
	paths, st, err := WritePseudoShards(dir, 2, ss, &p, thr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Total != 48 || st.Kept == 0 || st.Coverage != float64(st.Kept)/48 {
		t.Fatalf("stats %+v", st)
	}
	out, err := data.OpenShardSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if out.Count != st.Kept || out.LabLen != 1 {
		t.Fatalf("wrote %d samples labLen %d, want %d labLen 1", out.Count, out.LabLen, st.Kept)
	}
	// Verify every kept sample's features and label round-tripped exactly.
	feat := make([]float32, out.FeatLen)
	src := make([]float32, out.FeatLen)
	lab := make([]int32, 1)
	bi := 0
	for i, c := range p.Conf {
		if c < thr {
			continue
		}
		if err := out.ReadSample(bi, feat, lab); err != nil {
			t.Fatal(err)
		}
		if err := ss.ReadSample(i, src, nil); err != nil {
			t.Fatal(err)
		}
		if lab[0] != p.Label[i] {
			t.Fatalf("sample %d: label %d, want %d", i, lab[0], p.Label[i])
		}
		for j := range feat {
			if feat[j] != src[j] {
				t.Fatalf("sample %d feature %d: %v, want %v", i, j, feat[j], src[j])
			}
		}
		bi++
	}

	// Nothing survives 2.0 (softmax tops out at 1): no files, empty dir.
	emptyDir := t.TempDir()
	paths2, st2, err := WritePseudoShards(emptyDir, 2, ss, &p, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths2) != 0 || st2.Kept != 0 {
		t.Fatalf("threshold 2.0 kept %d samples, %d files", st2.Kept, len(paths2))
	}
	ents, err := os.ReadDir(emptyDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("threshold 2.0 left %d files on disk", len(ents))
	}
}

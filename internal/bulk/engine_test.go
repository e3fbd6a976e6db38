package bulk

import (
	"math"
	"os"
	"strings"
	"testing"

	"deep15pf/internal/data"
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
		if eng.shared == nil {
			t.Fatalf("%v: HEP replica did not offer the copy-free datapath", prec)
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

// TestEngineWarmPathZeroAlloc is the hot-path contract the headline
// numbers depend on: once plans and staging are warm, the per-batch
// consume step (forward + in-place top-1) never touches the allocator.
func TestEngineWarmPathZeroAlloc(t *testing.T) {
	prev := tensor.SetWorkers(1)
	defer tensor.SetWorkers(prev)

	net, ds := trainTiny(t, 64, 3)
	ss := unlabeledShards(t, ds, 2)
	lm := loadTiny(t, net, ds, serve.Float32)
	eng, err := NewEngine(lm, Config{Batch: 32})
	if err != nil {
		t.Fatal(err)
	}
	var p Predictions
	if _, err := eng.Score(ss, &p); err != nil {
		t.Fatal(err)
	}

	x := tensor.New(append([]int{32}, eng.inShape...)...)
	tensor.NewRNG(7).FillNorm(x, 0, 1)
	conf := make([]float32, 32)
	label := make([]int32, 32)
	if err := eng.consume(x, conf, label); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if err := eng.consume(x, conf, label); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm bulk consume allocates %.1f times per batch, want 0", allocs)
	}
}

// TestEngineWarmPathZeroAllocAboveTile is the same contract at a batch the
// plans run as tiles (nn's inferTile is 32): on one worker the tiles run on
// the caller, lane after lane reused, and the allocator stays untouched on
// both precisions.
func TestEngineWarmPathZeroAllocAboveTile(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	net, ds := trainTiny(t, 16, 1)
	for _, prec := range []serve.Precision{serve.Float32, serve.Int8} {
		eng, err := NewEngine(loadTiny(t, net, ds, prec), Config{Batch: 96})
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.New(append([]int{83}, eng.inShape...)...)
		tensor.NewRNG(7).FillNorm(x, 0, 1)
		conf := make([]float32, 83)
		label := make([]int32, 83)
		if err := eng.consume(x, conf, label); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if err := eng.consume(x, conf, label); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%v: warm tiled bulk consume allocates %.1f times per batch, want 0", prec, allocs)
		}
	}
}

// TestEngineTiledScoreMatchesNaiveLoop holds the engine at a tiled batch
// size to the naive loop at a batch no plan tiles, on both precisions and
// one, two and four kernel workers. 203 samples at batch 80 is a multiple of
// neither the batch nor the tile: the last batch is 43, its last tile 11.
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
		for _, workers := range []int{1, 2, 4} {
			tensor.SetWorkers(workers)
			eng, err := NewEngine(lm, Config{Batch: 80})
			if err != nil {
				t.Fatal(err)
			}
			// A caller's Label shorter than its Conf must grow on its own.
			p := Predictions{Conf: make([]float32, 203), Label: make([]int32, 5)}
			res, err := eng.Score(ss, &p)
			if err != nil {
				t.Fatalf("%v workers=%d: Score: %v", prec, workers, err)
			}
			if res.Samples != 203 || res.Batches != 3 {
				t.Fatalf("%v workers=%d: scored %d samples in %d batches, want 203 in 3", prec, workers, res.Samples, res.Batches)
			}
			for i := range wantConf {
				if p.Conf[i] != wantConf[i] || p.Label[i] != wantLabel[i] {
					t.Fatalf("%v workers=%d: sample %d: bulk (%v, %d) vs naive (%v, %d)",
						prec, workers, i, p.Conf[i], p.Label[i], wantConf[i], wantLabel[i])
				}
			}
		}
	}
}

// TestEngineRejectsNaN: non-finite logits (here from a bit-rotted
// checkpoint — NaN input pixels get flushed by ReLU, corrupt weights do
// not) must fail the whole run loudly, never become pseudo-labels.
func TestEngineRejectsNaN(t *testing.T) {
	net, ds := trainTiny(t, 16, 1)
	params := net.Params()
	last := params[len(params)-1].W.Data
	for j := range last {
		last[j] = float32(math.NaN())
	}
	ss := unlabeledShards(t, ds, 2)

	lm := loadTiny(t, net, ds, serve.Float32)
	eng, err := NewEngine(lm, Config{Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	var p Predictions
	if _, err := eng.Score(ss, &p); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN logits scored without complaint: %v", err)
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
	scratch := make([]byte, out.ScratchLen())
	srcScratch := make([]byte, ss.ScratchLen())
	bi := 0
	for i, c := range p.Conf {
		if c < thr {
			continue
		}
		if err := out.ReadSampleInto(bi, feat, lab, scratch); err != nil {
			t.Fatal(err)
		}
		if err := ss.ReadSampleInto(i, src, nil, srcScratch); err != nil {
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

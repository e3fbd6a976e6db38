package bulk

import (
	"testing"

	"deep15pf/internal/ckpt"
	"deep15pf/internal/core"
	"deep15pf/internal/hep"
	"deep15pf/internal/opt"
	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

// subset copies samples [lo, hi) of ds into a standalone Dataset.
func subset(ds *hep.Dataset, lo, hi int) *hep.Dataset {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	x, labels := ds.Batch(idx)
	return &hep.Dataset{Images: x, Labels: labels}
}

// TestFlywheelFullIteration runs one complete pseudo-label cycle through
// the real subsystems end to end:
//
//	train v1 → checkpoint store → Poll verifies v1, the registry loads it →
//	bulk Engine scores unlabeled shards → WritePseudoShards thresholds →
//	retrain on labeled + pseudo (discounted via SampleWeights) → store v2
//	→ Poll past v1 verifies v2, the registry loads it → rescore.
//
// Pseudo-label accuracy is measured against held-back truth, and coverage
// must fall monotonically as the threshold rises.
func TestFlywheelFullIteration(t *testing.T) {
	rng := tensor.NewRNG(11)
	full := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(8), 96, 0.5, rng)
	labeled := subset(full, 0, 64)
	unlabeled := subset(full, 64, 96) // truth labels held back for grading

	// v1: train on human labels only, snapshotting into the store.
	storeDir := t.TempDir()
	trainCfg := core.Config{
		Groups: 1, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 80,
		Solver: opt.NewSGD(0.1, 0.9), Seed: 3,
		Checkpoint: core.CheckpointConfig{Dir: storeDir, Every: 80, Arch: "tiny"},
	}
	core.TrainSync(hep.NewTrainingProblem(labeled, tinyCfg(), 7), trainCfg)

	reg := serve.NewRegistry()
	serve.RegisterHEP(reg, "tiny", tinyCfg())
	store, err := ckpt.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	// load verifies the newest version after `after` (payload CRCs,
	// workload label) and loads it at fp32, as labelfactory -ckpt-dir does.
	load := func(after int) (int, *serve.LoadedModel) {
		t.Helper()
		m, ok, err := store.Poll(after)
		if err != nil || !ok {
			t.Fatalf("poll after version %d: ok=%v err=%v", after, ok, err)
		}
		if err := reg.CheckManifest("tiny", m.Arch, m.Problem); err != nil {
			t.Fatal(err)
		}
		lm, err := reg.Load("tiny", store.WeightsPath(m.Version), serve.Float32)
		if err != nil {
			t.Fatal(err)
		}
		return m.Version, lm
	}
	v1, lm1 := load(0)
	if v1 != 1 {
		t.Fatalf("store starts at version %d, want 1", v1)
	}

	// Score the unlabeled pool with the deployed weights.
	ss := unlabeledShards(t, unlabeled, 4)
	eng, err := NewEngine(lm1, Config{Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	var p Predictions
	if _, err := eng.Score(ss, &p); err != nil {
		t.Fatal(err)
	}

	// Threshold → pseudo shards; grade survivors against held-back truth.
	const thr = 0.6
	pseudoDir := t.TempDir()
	paths, st, err := WritePseudoShards(pseudoDir, 2, ss, &p, thr)
	if err != nil {
		t.Fatal(err)
	}
	if st.Kept == 0 {
		t.Fatal("threshold 0.6 kept nothing — model never exceeds coin-flip confidence")
	}
	correct := 0
	for i, c := range p.Conf {
		if c >= thr && int(p.Label[i]) == unlabeled.Labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(st.Kept)
	t.Logf("pseudo-labels: %d/%d kept (coverage %.2f), accuracy %.2f", st.Kept, st.Total, st.Coverage, acc)

	// Raising the threshold can only shrink coverage, at every step.
	lo, loCov := float32(thr), st.Coverage
	for _, hi := range []float32{0.8, 0.95} {
		_, stHi, err := WritePseudoShards(t.TempDir(), 2, ss, &p, hi)
		if err != nil {
			t.Fatal(err)
		}
		if stHi.Coverage > loCov {
			t.Fatalf("coverage rose from %.2f to %.2f as threshold rose %.2f→%.2f", loCov, stHi.Coverage, lo, hi)
		}
		lo, loCov = hi, stHi.Coverage
	}

	// Retrain on labeled + pseudo, machine labels discounted to 0.5.
	pseudoDS, err := hep.LoadShardDataset(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if pseudoDS.Images.Shape[0] != st.Kept {
		t.Fatalf("pseudo set reloaded %d samples, wrote %d", pseudoDS.Images.Shape[0], st.Kept)
	}
	combined := labeled.Append(pseudoDS)
	weights := make([]float32, len(combined.Labels))
	for i := range weights {
		if i < len(labeled.Labels) {
			weights[i] = 1
		} else {
			weights[i] = 0.5
		}
	}
	problem2 := hep.NewTrainingProblem(combined, tinyCfg(), 7)
	problem2.SampleWeights = weights
	core.TrainSync(problem2, trainCfg)

	// The next poll finds v2, and scoring the pool with the NEW weights
	// must produce a different confidence surface.
	v2, lm2 := load(v1)
	if v2 != 2 {
		t.Fatalf("after retrain the store's newest version is %d, want 2", v2)
	}
	eng2, err := NewEngine(lm2, Config{Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	var p2 Predictions
	if _, err := eng2.Score(ss, &p2); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range p.Conf {
		if p2.Conf[i] != p.Conf[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("v2 scores are bitwise v1's — the reload scored stale weights")
	}
}

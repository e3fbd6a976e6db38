package hep

import (
	"testing"

	"deep15pf/internal/core"
	"deep15pf/internal/data"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

// TestShardBackedPrefetchMatchesInMemoryBlocking pins the tentpole's
// acceptance contract end to end: training with real per-batch shard-file
// reads staged by the background pipeline must reproduce the in-memory
// blocking trajectory bit for bit (shards round-trip float bits exactly,
// and the pipeline consumes the same batch order as the blocking path).
func TestShardBackedPrefetchMatchesInMemoryBlocking(t *testing.T) {
	rng := tensor.NewRNG(71)
	cfg := ModelConfig{Name: "pipe-test", ImageSize: 16, Filters: 8, ConvUnits: 3, Classes: 2}
	ds := GenerateDataset(DefaultGenConfig(), NewRenderer(16), 24, 0.5, rng)

	mem := NewTrainingProblem(ds, cfg, 5)
	shard := NewTrainingProblem(ds, cfg, 5)
	paths, err := ds.SaveShards(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	set, err := data.OpenShardSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	shard.Backing = set

	base := core.Config{Groups: 1, WorkersPerGroup: 2, GroupBatch: 8, Iterations: 8, Seed: 3}
	base.Solver = opt.NewSGD(0.02, 0.9)
	resMem := core.TrainSync(mem, base)

	pf := base
	pf.Solver = opt.NewSGD(0.02, 0.9)
	pf.Prefetch = 2
	resShard := core.TrainSync(shard, pf)

	for i := range resMem.FinalWeights {
		for j := range resMem.FinalWeights[i] {
			for k, v := range resMem.FinalWeights[i][j] {
				if resShard.FinalWeights[i][j][k] != v {
					t.Fatalf("shard-backed prefetched weights diverge at layer %d blob %d elem %d: %v vs %v",
						i, j, k, resShard.FinalWeights[i][j][k], v)
				}
			}
		}
	}
	for i := range resMem.Stats {
		if resMem.Stats[i].Loss != resShard.Stats[i].Loss {
			t.Fatalf("iteration %d loss diverges: %v vs %v", i, resMem.Stats[i].Loss, resShard.Stats[i].Loss)
		}
	}

	// The accounts must reflect the paths taken: blocking books all staging
	// as exposed wait; the pipeline's wait is measured, not assumed.
	if resMem.Ingest.Batches == 0 || resShard.Ingest.Batches == 0 {
		t.Fatalf("ingest accounting missing: mem %+v shard %+v", resMem.Ingest, resShard.Ingest)
	}
	if resMem.Ingest.Overlap() != 0 {
		t.Fatalf("blocking path reported %.2f overlap, want 0", resMem.Ingest.Overlap())
	}
	if ov := resShard.Ingest.Overlap(); ov < 0 || ov > 1 {
		t.Fatalf("pipeline overlap %v out of range", ov)
	}
}

// TestPrefetchedTrainingIterationZeroAllocs extends the PR 2 allocation
// gate to the streaming pipeline: a warmed Pipeline.Next plus a full
// planned train iteration — while the background goroutine stages the next
// batch — must not touch the allocator. AllocsPerRun counts process-wide
// mallocs, so a pass certifies the prefetch side too.
func TestPrefetchedTrainingIterationZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	p := planTestProblem(t, 16)
	rep := p.NewReplica()

	batches := make([][]int, 200)
	for i := range batches {
		batches[i] = []int{1, 5, 9, 13}
	}
	rep.StartIngest(batches, 1)
	defer rep.StopIngest()

	iter := func() {
		rep.ZeroGrad()
		rep.ComputeGradientsStream(batches[0], nil)
	}
	iter() // warm: plan compile, grad staging, ring steady state
	iter()
	for _, workers := range []int{1, 2, 4} {
		tensor.SetWorkers(workers)
		if allocs := testing.AllocsPerRun(20, iter); allocs != 0 {
			t.Fatalf("warmed prefetched training iteration at %d workers allocates %v objects/op, want 0", workers, allocs)
		}
	}
}

package hep

import (
	"testing"

	"deep15pf/internal/data"
	"deep15pf/internal/tensor"
)

// TestShardBackedPrefetchMatchesInMemoryBlocking pins the input pipeline on
// real files: a replica whose batches the background prefetcher reads from
// shard files must compute the same losses and gradients, bit for bit, as
// the blocking in-memory reference (ComputeGradients) — shards round-trip
// float bits exactly, and the pipeline stages the same indices in the same
// order. The accounts reflect the paths taken: blocking books all staging
// as exposed wait; the pipeline's wait is measured, not assumed.
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

	// Batches cross shard boundaries, repeat an index and shrink at the end.
	seq := [][]int{{3, 17, 5, 9}, {0, 23, 11, 2}, {8, 8, 20, 14}, {22, 7}}
	blocking, staged := mem.NewReplica(), shard.NewReplica()
	staged.StartIngest(seq)
	defer staged.StopIngest()
	for it, idx := range seq {
		blocking.ZeroGrad()
		staged.ZeroGrad()
		want := blocking.ComputeGradients(idx)
		if got := staged.ComputeGradientsStream(nil); got != want {
			t.Fatalf("batch %d: shard-backed prefetched loss %v, in-memory blocking %v", it, got, want)
		}
		bl, sl := blocking.TrainableLayers(), staged.TrainableLayers()
		for i := range bl {
			for j, prm := range bl[i].Params() {
				for k, v := range prm.Grad.Data {
					if got := sl[i].Params()[j].Grad.Data[k]; got != v {
						t.Fatalf("batch %d: layer %d blob %d grad %d: %v vs %v", it, i, j, k, got, v)
					}
				}
			}
		}
	}

	bst, sst := blocking.IngestStats(), staged.IngestStats()
	if bst.Batches != int64(len(seq)) || sst.Batches != int64(len(seq)) {
		t.Fatalf("ingest accounting missing: blocking %+v prefetched %+v", bst, sst)
	}
	if bst.Overlap() != 0 {
		t.Fatalf("blocking path reported %.2f overlap, want 0", bst.Overlap())
	}
	if ov := sst.Overlap(); ov < 0 || ov > 1 {
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
	rep.StartIngest(batches)
	defer rep.StopIngest()

	iter := func() {
		rep.ZeroGrad()
		rep.ComputeGradientsStream(nil)
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

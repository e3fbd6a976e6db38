package climate

import (
	"testing"

	"deep15pf/internal/core"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

// TestClimatePrefetchMatchesBlocking pins the streaming-ingest identity on
// the climate side, across the full staged tuple — fields, box targets and
// the semi-supervised labeled flags: prefetched training must reproduce the
// blocking trajectory bit for bit.
func TestClimatePrefetchMatchesBlocking(t *testing.T) {
	rng := tensor.NewRNG(91)
	ds := GenerateDataset(DefaultGenConfig(64), 10, rng)
	mk := func() *TrainingProblem {
		p := NewTrainingProblem(ds, SmallConfig(), 11)
		p.LabeledFrac = 0.5 // unlabeled tail exercises the flag staging
		return p
	}

	base := core.Config{Groups: 1, WorkersPerGroup: 2, GroupBatch: 4, Iterations: 5, Seed: 13}
	base.Solver = opt.NewAdam(1.5e-3)
	blocking := core.TrainSync(mk(), base)

	pf := base
	pf.Solver = opt.NewAdam(1.5e-3)
	pf.Prefetch = 1
	prefetched := core.TrainSync(mk(), pf)

	for i := range blocking.FinalWeights {
		for j := range blocking.FinalWeights[i] {
			for k, v := range blocking.FinalWeights[i][j] {
				if prefetched.FinalWeights[i][j][k] != v {
					t.Fatalf("prefetched weights diverge at layer %d blob %d elem %d", i, j, k)
				}
			}
		}
	}
	for i := range blocking.Stats {
		if blocking.Stats[i].Loss != prefetched.Stats[i].Loss {
			t.Fatalf("iteration %d loss diverges: %v vs %v",
				i, blocking.Stats[i].Loss, prefetched.Stats[i].Loss)
		}
	}
	if prefetched.Ingest.Batches == 0 || prefetched.Ingest.StageSeconds <= 0 {
		t.Fatalf("pipeline ingest accounting missing: %+v", prefetched.Ingest)
	}
}

// TestClimatePrefetchedIterationZeroAllocs: the climate analogue of the
// streamed-ingest allocation gate — staged Pipeline.Next plus a composed
// TrainPlan step at zero steady-state allocations.
func TestClimatePrefetchedIterationZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	rng := tensor.NewRNG(95)
	ds := GenerateDataset(DefaultGenConfig(64), 8, rng)
	p := NewTrainingProblem(ds, SmallConfig(), 11)
	p.LabeledFrac = 0.5
	rep := p.NewReplica()

	batches := make([][]int, 60)
	for i := range batches {
		batches[i] = []int{0, 6, 3, 7}
	}
	rep.StartIngest(batches, 1)
	defer rep.StopIngest()

	iter := func() {
		rep.ZeroGrad()
		rep.ComputeGradientsStream(batches[0], nil)
	}
	iter() // warm
	iter()
	for _, workers := range []int{1, 2, 4} {
		tensor.SetWorkers(workers)
		if allocs := testing.AllocsPerRun(10, iter); allocs != 0 {
			t.Fatalf("warmed prefetched climate iteration at %d workers allocates %v objects/op, want 0", workers, allocs)
		}
	}
}

// TestWorkloadStagesFieldsBoxesAndFlags checks the one thing core's generic
// replica tests cannot: that the climate hook's Stage puts the right bytes
// in a slot — each sample's 16-channel field, its box list (shared, not
// copied) and the semi-supervised labeled flag — in index order, and that
// restaging a slot at a smaller batch leaves no tail behind.
func TestWorkloadStagesFieldsBoxesAndFlags(t *testing.T) {
	ds := GenerateDataset(DefaultGenConfig(32), 8, tensor.NewRNG(95))
	w := &workload{ds: ds, labeledN: 4, arena: tensor.NewArena()}
	w.Reserve(1, 4)
	for _, idx := range [][]int{{6, 1, 3, 4}, {7, 0}} {
		if err := w.Stage(1, idx); err != nil {
			t.Fatal(err)
		}
		s := w.slots[1]
		if s.x.Shape[0] != len(idx) || len(s.boxes) != len(idx) || len(s.labeled) != len(idx) {
			t.Fatalf("staged %v: x %v, %d box lists, %d flags", idx, s.x.Shape, len(s.boxes), len(s.labeled))
		}
		per := s.x.Len() / len(idx)
		for bi, i := range idx {
			for j, v := range ds.Samples[i].Field.Data {
				if s.x.Data[bi*per+j] != v {
					t.Fatalf("staged %v: sample %d field element %d is %v, dataset has %v", idx, i, j, s.x.Data[bi*per+j], v)
				}
			}
			if len(s.boxes[bi]) != len(ds.Samples[i].Boxes) ||
				(len(s.boxes[bi]) > 0 && &s.boxes[bi][0] != &ds.Samples[i].Boxes[0]) {
				t.Fatalf("staged %v: sample %d's boxes are not the dataset's own list", idx, i)
			}
			if s.labeled[bi] != (i < 4) {
				t.Fatalf("staged %v: sample %d labeled=%v with the first 4 labeled", idx, i, s.labeled[bi])
			}
		}
	}
}

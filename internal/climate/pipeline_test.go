package climate

import (
	"testing"

	"deep15pf/internal/tensor"
)

// TestClimatePrefetchMatchesBlocking pins the streaming-ingest identity on
// the climate side, across the full staged tuple — fields, box targets and
// the semi-supervised labeled flags: batches the prefetcher staged must
// give the losses and gradients of the blocking reference
// (ComputeGradients) bit for bit.
func TestClimatePrefetchMatchesBlocking(t *testing.T) {
	rng := tensor.NewRNG(91)
	ds := GenerateDataset(DefaultGenConfig(64), 10, rng)
	p := NewTrainingProblem(ds, SmallConfig(), 11)
	p.LabeledFrac = 0.5 // unlabeled tail exercises the flag staging

	seq := [][]int{{9, 0, 4, 7}, {2, 5, 8, 1}, {6, 3}}
	blocking, staged := p.NewReplica(), p.NewReplica()
	staged.StartIngest(seq)
	defer staged.StopIngest()
	for it, idx := range seq {
		blocking.ZeroGrad()
		staged.ZeroGrad()
		want := blocking.ComputeGradients(idx)
		if got := staged.ComputeGradientsStream(nil); got != want {
			t.Fatalf("batch %d: prefetched loss %v, blocking %v", it, got, want)
		}
		bl, sl := blocking.TrainableLayers(), staged.TrainableLayers()
		for i := range bl {
			for j, prm := range bl[i].Params() {
				for k, v := range prm.Grad.Data {
					if sl[i].Params()[j].Grad.Data[k] != v {
						t.Fatalf("batch %d: prefetched grads diverge at layer %d blob %d elem %d", it, i, j, k)
					}
				}
			}
		}
	}
	if st := staged.IngestStats(); st.Batches != int64(len(seq)) || st.StageSeconds <= 0 {
		t.Fatalf("pipeline ingest accounting missing: %+v", st)
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
	rep.StartIngest(batches)
	defer rep.StopIngest()

	iter := func() {
		rep.ZeroGrad()
		rep.ComputeGradientsStream(nil)
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

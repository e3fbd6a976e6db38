package core

// The one replica's generic behaviours, checked once here (with a
// fault-injecting fake around the workload) instead of once per science:
// what a science's own tests still have to show is only that its Stage
// copies the right bytes.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// faultyWorkload is the problem's workload with Stage failing for the index
// sets stageErr rejects.
type faultyWorkload struct {
	Workload
	stageErr func(idx []int) error
}

func (w faultyWorkload) Stage(slot int, idx []int) error {
	if err := w.stageErr(idx); err != nil {
		return err
	}
	return w.Workload.Stage(slot, idx)
}

// gradsOf snapshots every gradient of a replica.
func gradsOf(r *Replica) [][]float32 {
	var out [][]float32
	for _, p := range r.params {
		out = append(out, append([]float32(nil), p.Grad.Data...))
	}
	return out
}

// mustPanic runs f and returns its panic message, failing if it returns.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("expected a panic")
		}
		msg = fmt.Sprint(v)
	}()
	f()
	return ""
}

func TestReplica(t *testing.T) {
	p := newAllocProblem(32)
	// Two empty sets: an epoch-tail shard with zero samples reaches both
	// the stager (SliceSource skips it) and the trainer (which skips the
	// compute); the two must stay in step.
	seq := [][]int{{0, 3, 7, 11}, {}, {4, 2, 9, 1}, {15, 14, 13, 12}, {}, {5, 6}}
	errDisk := errors.New("shard 3: short read")
	failOn9 := func(idx []int) error {
		for _, i := range idx {
			if i == 9 {
				return errDisk
			}
		}
		return nil
	}

	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"staged equals blocking bit for bit, empty sets skipped on both sides", func(t *testing.T) {
			blocking, staged := p.NewReplica(), p.NewReplica()
			staged.StartIngest(seq)
			defer staged.StopIngest()
			nLayers := len(staged.TrainableLayers())
			for it, idx := range seq {
				if len(idx) == 0 {
					continue
				}
				blocking.ZeroGrad()
				staged.ZeroGrad()
				want := blocking.ComputeGradients(idx)
				var order []int
				got := staged.ComputeGradientsStream(func(l int) { order = append(order, l) })
				if got != want {
					t.Fatalf("batch %d: staged loss %v, blocking %v", it, got, want)
				}
				bg, sg := gradsOf(blocking), gradsOf(staged)
				for i := range bg {
					for j := range bg[i] {
						if sg[i][j] != bg[i][j] {
							t.Fatalf("batch %d: param %d grad diverges at %d", it, i, j)
						}
					}
				}
				if len(order) != nLayers || order[0] != nLayers-1 || order[nLayers-1] != 0 {
					t.Fatalf("batch %d: gradDone order %v, want every layer once, last layer first", it, order)
				}
			}
			// The stager staged exactly the non-empty sets: a seventh
			// request is the documented exhaustion panic, not a hang.
			if msg := mustPanic(t, func() { staged.ComputeGradientsStream(nil) }); !strings.Contains(msg, "exhausted") {
				t.Fatalf("exhausted pipeline panicked with %q", msg)
			}
			if st := staged.IngestStats(); st.Batches != 4 || st.Samples != 14 {
				t.Fatalf("pipeline account %+v, want 4 batches / 14 samples", st)
			}
		}},
		{"an all-empty sequence starts no pipeline", func(t *testing.T) {
			r := p.NewReplica()
			r.StartIngest([][]int{{}, {}})
			defer r.StopIngest()
			if r.pipe != nil {
				t.Fatal("an all-empty sequence started a prefetcher")
			}
		}},
		{"staging failure panics naming the cause, blocking", func(t *testing.T) {
			r := NewReplica(faultyWorkload{p.newWorkload(), failOn9})
			msg := mustPanic(t, func() { r.ComputeGradients(seq[2]) })
			if !strings.Contains(msg, "batch staging failed") || !strings.Contains(msg, errDisk.Error()) {
				t.Fatalf("blocking staging failure panicked with %q", msg)
			}
		}},
		{"staging failure panics naming the cause, prefetched", func(t *testing.T) {
			r := NewReplica(faultyWorkload{p.newWorkload(), failOn9})
			r.StartIngest(seq)
			defer r.StopIngest()
			r.ComputeGradientsStream(nil) // seq[0], staged before the fault
			msg := mustPanic(t, func() { r.ComputeGradientsStream(nil) })
			if !strings.Contains(msg, "ingest pipeline") || !strings.Contains(msg, errDisk.Error()) {
				t.Fatalf("prefetched staging failure panicked with %q", msg)
			}
		}},
		{"StopIngest is idempotent and the account is blocking plus pipeline", func(t *testing.T) {
			r := p.NewReplica()
			r.StopIngest() // never started: a no-op
			r.ComputeGradients(seq[0])
			r.ComputeGradients(seq[5])
			before := r.IngestStats()
			if before.Batches != 2 || before.Samples != 6 || before.WaitSeconds != before.StageSeconds {
				t.Fatalf("blocking account %+v, want 2 batches / 6 samples, every staged second exposed", before)
			}
			r.StartIngest(seq[:3])
			r.ComputeGradientsStream(nil)
			r.ComputeGradientsStream(nil)
			r.StopIngest()
			r.StopIngest()
			after := r.IngestStats()
			if after.Batches != 4 || after.Samples != 14 {
				t.Fatalf("combined account %+v, want 4 batches / 14 samples", after)
			}
			if after.StageSeconds <= before.StageSeconds || after.WaitSeconds < before.WaitSeconds {
				t.Fatalf("pipeline account did not add to the blocking one: %+v then %+v", before, after)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, c.run)
	}
}

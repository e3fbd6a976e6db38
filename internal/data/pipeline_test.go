package data

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"deep15pf/internal/tensor"
)

// pipeSlot is the test slot: a staged copy of the drawn indices.
type pipeSlot struct {
	idx []int
	n   int
}

func testPipeline(depth int, batches [][]int, stage func(*pipeSlot, []int) error) *Pipeline[*pipeSlot] {
	slots := make([]*pipeSlot, depth)
	for i := range slots {
		slots[i] = &pipeSlot{idx: make([]int, 64)}
	}
	if stage == nil {
		stage = func(dst *pipeSlot, idx []int) error {
			dst.n = copy(dst.idx, idx)
			return nil
		}
	}
	return NewPipeline(slots, SliceSource(batches), stage)
}

// TestPipelineDeliversBatchesInOrder: the single prefetch goroutine must
// hand batches to the consumer in exactly source order — the determinism
// contract that makes prefetched training bitwise-identical to blocking.
func TestPipelineDeliversBatchesInOrder(t *testing.T) {
	var batches [][]int
	for i := 0; i < 40; i++ {
		batches = append(batches, []int{i * 3, i*3 + 1, i*3 + 2})
	}
	p := testPipeline(2, batches, nil)
	p.Start()
	defer p.Stop()
	for i := 0; i < len(batches); i++ {
		slot, ok := p.Next()
		if !ok {
			t.Fatalf("pipeline ended early at batch %d: %v", i, p.Err())
		}
		if slot.n != 3 || slot.idx[0] != i*3 {
			t.Fatalf("batch %d staged as %v (n=%d)", i, slot.idx[:slot.n], slot.n)
		}
		p.Release(slot)
	}
	if _, ok := p.Next(); ok {
		t.Fatal("pipeline must end after the source is exhausted")
	}
	if err := p.Err(); err != nil {
		t.Fatalf("clean exhaustion reported error %v", err)
	}
	st := p.Stats()
	if st.Batches != 40 || st.Samples != 120 {
		t.Fatalf("stats staged %d batches / %d samples, want 40/120", st.Batches, st.Samples)
	}
}

// TestPipelineSkipsEmptyBatches: SliceSource must drop zero-sample shards
// (the Split parts > n case) instead of staging zero batches.
func TestPipelineSkipsEmptyBatches(t *testing.T) {
	batches := [][]int{{1, 2}, {}, nil, {3}, {}}
	p := testPipeline(2, batches, nil)
	p.Start()
	defer p.Stop()
	var got []int
	for {
		slot, ok := p.Next()
		if !ok {
			break
		}
		if slot.n == 0 {
			t.Fatal("pipeline staged a zero batch")
		}
		got = append(got, slot.idx[:slot.n]...)
		p.Release(slot)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("staged samples = %v, want [1 2 3]", got)
	}
}

// TestPipelineBackpressure: with every slot staged and one held by the
// consumer, the prefetcher must block rather than run ahead unbounded.
func TestPipelineBackpressure(t *testing.T) {
	var staged atomic.Int64
	var batches [][]int
	for i := 0; i < 100; i++ {
		batches = append(batches, []int{i})
	}
	p := testPipeline(3, batches, func(dst *pipeSlot, idx []int) error {
		staged.Add(1)
		dst.n = copy(dst.idx, idx)
		return nil
	})
	p.Start()
	defer p.Stop()
	if _, ok := p.Next(); !ok { // hold one slot
		t.Fatal("pipeline ended early")
	}
	// Give the prefetcher every chance to overrun: it may stage the ring
	// (3 slots) plus be blocked holding nothing more.
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		if staged.Load() > 4 {
			t.Fatalf("prefetcher staged %d batches while consumer held one (ring of 3)", staged.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPipelineReleaseOutOfOrder holds the release contract: a consumer
// holding up to three slots of a four-slot ring releases them in shuffled
// order, some from other goroutines, and no slot is restaged while it is
// held — every held batch still reads what Next returned when it is
// released. A Next that recycled the previous slot on its own would hand a
// held slot to the stager and fail both checks.
func TestPipelineReleaseOutOfOrder(t *testing.T) {
	const depth, hold, batches = 4, 3, 400
	slots := make([]*pipeSlot, depth)
	held := make([]atomic.Bool, depth)
	slotOf := map[*pipeSlot]int{}
	for i := range slots {
		slots[i] = &pipeSlot{idx: make([]int, 1)}
		slotOf[slots[i]] = i
	}
	var overwritten atomic.Int64
	seq := make([][]int, batches)
	for i := range seq {
		seq[i] = []int{i}
	}
	p := NewPipeline(slots, SliceSource(seq), func(dst *pipeSlot, idx []int) error {
		if held[slotOf[dst]].Load() {
			overwritten.Add(1)
		}
		dst.n = copy(dst.idx, idx)
		return nil
	})
	p.Start()
	defer p.Stop()

	type taken struct {
		slot  *pipeSlot
		batch int
	}
	var mine []taken
	rng := tensor.NewRNG(5)
	release := func(k int) {
		tk := mine[k]
		mine = append(mine[:k], mine[k+1:]...)
		if tk.slot.idx[0] != tk.batch {
			t.Fatalf("batch %d was overwritten with %d while held", tk.batch, tk.slot.idx[0])
		}
		held[slotOf[tk.slot]].Store(false)
		if k%2 == 0 {
			p.Release(tk.slot)
			return
		}
		done := make(chan struct{})
		go func() { p.Release(tk.slot); close(done) }()
		<-done
	}
	next := 0
	for next < batches || len(mine) > 0 {
		if next < batches && (len(mine) < hold && rng.Float32() < 0.6 || len(mine) == 0) {
			slot, ok := p.Next()
			if !ok {
				t.Fatalf("pipeline ended at batch %d: %v", next, p.Err())
			}
			held[slotOf[slot]].Store(true)
			if slot.idx[0] != next {
				t.Fatalf("Next returned batch %d, want %d", slot.idx[0], next)
			}
			mine = append(mine, taken{slot, next})
			next++
			continue
		}
		release(rng.Intn(len(mine)))
	}
	if _, ok := p.Next(); ok {
		t.Fatal("pipeline must end after the source is exhausted")
	}
	if n := overwritten.Load(); n != 0 {
		t.Fatalf("%d batches were staged into a slot the consumer held", n)
	}
}

// TestPipelineStopWhileBlocked: Stop must unblock a prefetcher waiting for
// a free slot and return promptly (no goroutine leak, no deadlock).
func TestPipelineStopWhileBlocked(t *testing.T) {
	var batches [][]int
	for i := 0; i < 100; i++ {
		batches = append(batches, []int{i})
	}
	p := testPipeline(2, batches, nil)
	p.Start()
	if _, ok := p.Next(); !ok {
		t.Fatal("pipeline ended early")
	}
	done := make(chan struct{})
	go func() { p.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop deadlocked against a backpressured prefetcher")
	}
	p.Stop() // idempotent
}

// TestPipelineStageError: a staging failure (e.g. a shard truncated on disk
// mid-run) must surface through Err, not panic or hang.
func TestPipelineStageError(t *testing.T) {
	wantErr := errors.New("disk ate the shard")
	calls := 0
	p := testPipeline(2, [][]int{{1}, {2}, {3}}, func(dst *pipeSlot, idx []int) error {
		calls++
		if calls == 2 {
			return wantErr
		}
		dst.n = copy(dst.idx, idx)
		return nil
	})
	p.Start()
	defer p.Stop()
	if _, ok := p.Next(); !ok {
		t.Fatal("first batch should stage cleanly")
	}
	if _, ok := p.Next(); ok {
		t.Fatal("pipeline must end at the staging error")
	}
	if err := p.Err(); !errors.Is(err, wantErr) {
		t.Fatalf("Err() = %v, want %v", err, wantErr)
	}
}

// TestPipelineNextZeroAllocs: the steady-state consumer side — wait for the
// staged slot, release it — must not touch the allocator, the same
// AllocsPerRun discipline as nn.Plan. The producer runs concurrently, so a
// pass here also certifies staging itself is allocation-free.
func TestPipelineNextZeroAllocs(t *testing.T) {
	var batches [][]int
	for i := 0; i < 4096; i++ {
		batches = append(batches, []int{i, i + 1})
	}
	p := testPipeline(2, batches, nil)
	p.Start()
	defer p.Stop()
	if allocs := testing.AllocsPerRun(100, func() {
		slot, ok := p.Next()
		if !ok {
			t.Fatal("pipeline ended mid-measurement")
		}
		p.Release(slot)
	}); allocs != 0 {
		t.Fatalf("warmed Pipeline.Next and Release allocate %v objects/op, want 0", allocs)
	}
}

// TestPipelineStatsAccountExposure: a slow stage against an eager consumer
// shows up as WaitSeconds (exposed); a slow consumer hides staging time and
// drives Overlap toward 1.
func TestPipelineStatsAccountExposure(t *testing.T) {
	mk := func(stageDelay, consumeDelay time.Duration, n int) IngestStats {
		var batches [][]int
		for i := 0; i < n; i++ {
			batches = append(batches, []int{i})
		}
		p := testPipeline(2, batches, func(dst *pipeSlot, idx []int) error {
			time.Sleep(stageDelay)
			dst.n = copy(dst.idx, idx)
			return nil
		})
		p.Start()
		defer p.Stop()
		for {
			slot, ok := p.Next()
			if !ok {
				break
			}
			time.Sleep(consumeDelay)
			p.Release(slot)
		}
		return p.Stats()
	}
	exposed := mk(2*time.Millisecond, 0, 10)
	if exposed.WaitSeconds <= 0 || exposed.StageSeconds <= 0 {
		t.Fatalf("I/O-bound pipeline recorded stage=%.4fs wait=%.4fs", exposed.StageSeconds, exposed.WaitSeconds)
	}
	// Staging that takes real time, less than the consumer's: only the
	// first batch's is exposed, so both overlaps are ratios of
	// milliseconds, not of scheduling jitter.
	hidden := mk(time.Millisecond, 3*time.Millisecond, 10)
	if hidden.Overlap() <= exposed.Overlap() {
		t.Fatalf("compute-bound overlap %.2f should exceed I/O-bound overlap %.2f",
			hidden.Overlap(), exposed.Overlap())
	}
}

// TestIngestStatsHelpers covers Add and the Overlap clamps.
func TestIngestStatsHelpers(t *testing.T) {
	a := IngestStats{Batches: 2, Samples: 8, StageSeconds: 1.0, WaitSeconds: 0.25}
	b := IngestStats{Batches: 1, Samples: 4, StageSeconds: 0.5, WaitSeconds: 0.5}
	sum := a.Add(b)
	if sum.Batches != 3 || sum.Samples != 12 || sum.StageSeconds != 1.5 || sum.WaitSeconds != 0.75 {
		t.Fatalf("Add = %+v", sum)
	}
	if got := sum.Overlap(); got != 0.5 {
		t.Fatalf("Overlap = %v, want 0.5", got)
	}
	if (IngestStats{}).Overlap() != 0 {
		t.Fatal("empty stats must report zero overlap")
	}
	if (IngestStats{StageSeconds: 1, WaitSeconds: 3}).Overlap() != 0 {
		t.Fatal("overshooting wait must clamp to 0")
	}
}

// TestPipelineMatchesBlockingOrderUnderBatcher: driving a Pipeline from an
// epoch-shuffled Batcher consumes the RNG in exactly the order the blocking
// path would — the property the golden-fingerprint trainers rely on.
func TestPipelineMatchesBlockingOrderUnderBatcher(t *testing.T) {
	const n, batch, draws = 37, 8, 20
	blocking := NewBatcher(n, batch, tensor.NewRNG(99))
	var want [][]int
	for i := 0; i < draws; i++ {
		want = append(want, append([]int(nil), blocking.Next()...))
	}

	prefetched := NewBatcher(n, batch, tensor.NewRNG(99))
	i := 0
	source := func() []int {
		if i >= draws {
			return nil
		}
		i++
		return prefetched.Next()
	}
	slots := make([]*pipeSlot, 2)
	for s := range slots {
		slots[s] = &pipeSlot{idx: make([]int, batch)}
	}
	p := NewPipeline(slots, source, func(dst *pipeSlot, idx []int) error {
		dst.n = copy(dst.idx, idx)
		return nil
	})
	p.Start()
	defer p.Stop()
	for _, w := range want {
		slot, ok := p.Next()
		if !ok {
			t.Fatal("pipeline ended early")
		}
		if slot.n != len(w) {
			t.Fatalf("batch size %d, want %d", slot.n, len(w))
		}
		for j := range w {
			if slot.idx[j] != w[j] {
				t.Fatalf("prefetched order diverged from blocking order at %v vs %v", slot.idx[:slot.n], w)
			}
		}
		p.Release(slot)
	}
}

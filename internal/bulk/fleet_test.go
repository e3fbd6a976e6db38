package bulk

import (
	"strings"
	"testing"
	"time"

	"deep15pf/internal/hep"
	"deep15pf/internal/serve"
)

// fleetCfg is the wire shape every fleet test needs: hep images are rank-3
// on the model side, so the batched frames must carry [n, C, S, S].
func fleetCfg(batch int) Config {
	return Config{Batch: batch, InShape: []int{hep.Channels, 8, 8}}
}

// TestFleetMatchesSingleEngine pins fleet correctness: two backends
// stealing shards off the shared queue must produce exactly the
// predictions one local engine computes, with no requeues on a clean run.
func TestFleetMatchesSingleEngine(t *testing.T) {
	net, ds := trainTiny(t, 60, 6)
	ss := unlabeledShards(t, ds, 6)
	lm := loadTiny(t, net, ds, serve.Float32)

	b0 := startBackend(t, lm, serve.Config{MaxBatch: 8, Workers: 2})
	b1 := startBackend(t, lm, serve.Config{MaxBatch: 8, Workers: 2})

	var got Predictions
	res, err := ScoreFleet([]string{b0.Addr(), b1.Addr()}, "tiny", ss, fleetCfg(16), &got)
	if err != nil {
		t.Fatalf("ScoreFleet: %v", err)
	}
	if res.Samples != 60 || res.Requeues != 0 || res.BackendsLost != 0 {
		t.Fatalf("clean fleet run: %+v", res)
	}

	eng, err := NewEngine(lm, Config{Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	var want Predictions
	if _, err := eng.Score(ss, &want); err != nil {
		t.Fatal(err)
	}
	for i := range want.Conf {
		if got.Conf[i] != want.Conf[i] || got.Label[i] != want.Label[i] {
			t.Fatalf("sample %d: fleet (%v, %d) vs local (%v, %d)",
				i, got.Conf[i], got.Label[i], want.Conf[i], want.Label[i])
		}
	}
}

// TestFleetOddShardSizesMatchSingleEngine: shards whose sizes are not a
// multiple of the batch end in a short batch, which a worker sends as a
// view of its one batch-sized staging buffer. 77 samples in 5 shards at
// batch 6 gives every shard a short last batch; the predictions must still
// be bitwise the single engine's.
func TestFleetOddShardSizesMatchSingleEngine(t *testing.T) {
	net, ds := trainTiny(t, 77, 6)
	ss := unlabeledShards(t, ds, 5)
	for k := 0; k < ss.Shards(); k++ {
		if lo, hi := ss.ShardRange(k); (hi-lo)%6 == 0 {
			t.Fatalf("shard %d holds %d samples, a multiple of the batch", k, hi-lo)
		}
	}
	lm := loadTiny(t, net, ds, serve.Float32)
	b0 := startBackend(t, lm, serve.Config{MaxBatch: 8, Workers: 2})
	b1 := startBackend(t, lm, serve.Config{MaxBatch: 8, Workers: 2})

	var got Predictions
	if _, err := ScoreFleet([]string{b0.Addr(), b1.Addr()}, "tiny", ss, fleetCfg(6), &got); err != nil {
		t.Fatalf("ScoreFleet: %v", err)
	}
	eng, err := NewEngine(lm, Config{Batch: 6})
	if err != nil {
		t.Fatal(err)
	}
	var want Predictions
	if _, err := eng.Score(ss, &want); err != nil {
		t.Fatal(err)
	}
	for i := range want.Conf {
		if got.Conf[i] != want.Conf[i] || got.Label[i] != want.Label[i] {
			t.Fatalf("sample %d: fleet (%v, %d) vs local (%v, %d)",
				i, got.Conf[i], got.Label[i], want.Conf[i], want.Label[i])
		}
	}
}

// TestFleetBackendDeathZeroLoss is the acceptance gate: a backend killed
// mid-run loses zero shards — its in-flight shard is requeued and finished
// by the survivor, and every sample still scores bitwise-correct.
func TestFleetBackendDeathZeroLoss(t *testing.T) {
	net, ds := trainTiny(t, 96, 6)
	ss := unlabeledShards(t, ds, 12)
	lm := loadTiny(t, net, ds, serve.Float32)

	victim := startBackend(t, lm, serve.Config{MaxBatch: 8, Workers: 2})
	survivor := startBackend(t, lm, serve.Config{MaxBatch: 8, Workers: 2})

	// Pace the victim so its first shard is still in flight when the plug
	// is pulled; the survivor drains the queue, a few ms a shard so that it
	// cannot empty all twelve before the victim's worker has taken one.
	victim.SetDelay(200 * time.Millisecond)
	survivor.SetDelay(5 * time.Millisecond)
	go func() {
		time.Sleep(20 * time.Millisecond)
		victim.Close()
	}()

	var got Predictions
	res, err := ScoreFleet([]string{victim.Addr(), survivor.Addr()}, "tiny", ss, fleetCfg(16), &got)
	if err != nil {
		t.Fatalf("ScoreFleet with dying backend: %v", err)
	}
	if res.Samples != 96 {
		t.Fatalf("scored %d samples, want 96", res.Samples)
	}
	if res.Requeues == 0 || res.BackendsLost == 0 {
		t.Fatalf("victim died mid-run yet Requeues=%d BackendsLost=%d", res.Requeues, res.BackendsLost)
	}

	eng, err := NewEngine(lm, Config{Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	var want Predictions
	if _, err := eng.Score(ss, &want); err != nil {
		t.Fatal(err)
	}
	for i := range want.Conf {
		if got.Conf[i] != want.Conf[i] || got.Label[i] != want.Label[i] {
			t.Fatalf("sample %d lost or corrupted: fleet (%v, %d) vs local (%v, %d)",
				i, got.Conf[i], got.Label[i], want.Conf[i], want.Label[i])
		}
	}
}

// TestFleetAllBackendsDead: with every backend unreachable the run must
// error, not return an undercount as success.
func TestFleetAllBackendsDead(t *testing.T) {
	net, ds := trainTiny(t, 16, 1)
	ss := unlabeledShards(t, ds, 2)
	lm := loadTiny(t, net, ds, serve.Float32)
	b := startBackend(t, lm, serve.Config{MaxBatch: 8, Workers: 1})
	addr := b.Addr()
	b.Close()

	var p Predictions
	if _, err := ScoreFleet([]string{addr}, "tiny", ss, fleetCfg(8), &p); err == nil ||
		!strings.Contains(err.Error(), "backends lost") {
		t.Fatalf("all-dead fleet returned %v, want unscored-shards error", err)
	}
}

// TestFleetUnknownModelAborts: a typed refusal is a configuration error —
// abort immediately instead of bouncing the shard between backends forever.
func TestFleetUnknownModelAborts(t *testing.T) {
	net, ds := trainTiny(t, 16, 1)
	ss := unlabeledShards(t, ds, 2)
	lm := loadTiny(t, net, ds, serve.Float32)
	b := startBackend(t, lm, serve.Config{MaxBatch: 8, Workers: 1})

	var p Predictions
	if _, err := ScoreFleet([]string{b.Addr()}, "nope", ss, fleetCfg(8), &p); err == nil ||
		!strings.Contains(err.Error(), "refused") {
		t.Fatalf("unknown model returned %v, want fatal refusal", err)
	}

	// Bad InShape is caught before any wire traffic.
	bad := fleetCfg(8)
	bad.InShape = []int{7}
	if _, err := ScoreFleet([]string{b.Addr()}, "tiny", ss, bad, &p); err == nil ||
		!strings.Contains(err.Error(), "InShape") {
		t.Fatalf("bad InShape returned %v", err)
	}
}

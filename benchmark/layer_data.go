package main

// Adapter for internal/data — the only file of the benchmark that imports
// it. Entry points used: OpenShardSet, ShardSet.ReadBatchInto/ScratchLen/
// Close. Ingest timings come from core.Result.Ingest (a data.IngestStats),
// read in the workload by field.

import (
	"time"

	"deep15pf/internal/data"
)

type ShardSet = data.ShardSet

func openShards(paths []string) (*ShardSet, error) { return data.OpenShardSet(paths...) }

// probeShardRead times ReadBatchInto of batch samples — uniformly random
// indices, or consecutive runs walking the set — and returns seconds per
// batch and the bytes one batch carries.
func probeShardRead(ss *ShardSet, batch int, random bool, budget time.Duration) (sec float64, bytes int) {
	rng := newRNG(6)
	idx := make([]int, batch)
	feat := make([]float32, batch*ss.FeatLen)
	scratch := make([]byte, ss.ScratchLen())
	pos := 0
	sec = timeLoop(budget, func() {
		for i := range idx {
			if random {
				idx[i] = rng.Intn(ss.Count)
			} else {
				idx[i] = pos
				pos = (pos + 1) % ss.Count
			}
		}
		if err := ss.ReadBatchInto(idx, feat, nil, scratch); err != nil {
			panic("benchmark: shard read: " + err.Error())
		}
	})
	return sec, 4 * batch * ss.FeatLen
}

// readShards reads the samples idx names into dst, for reference loops.
func readShards(ss *ShardSet) func(idx []int, dst []float32) error {
	return func(idx []int, dst []float32) error { return ss.ReadBatchInto(idx, dst, nil, nil) }
}

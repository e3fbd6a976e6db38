package data

import (
	"fmt"
	"os"
	"path/filepath"
)

// ShardSet presents a list of shard files as one dataset with global,
// deterministic sample indexing: sample i lives in the file whose cumulative
// count range covers i, in path order. Combined with an epoch-shuffled
// Batcher over Count, this is the repo's stand-in for the paper's HDF5 input
// path — a deterministic shard+index order that a prefetch pipeline and the
// blocking reader traverse identically.
//
// Reads go through os.File.ReadAt and mutate no ShardSet state, so one set
// may be shared by many replicas' prefetch goroutines concurrently.
type ShardSet struct {
	readers []*ShardReader
	starts  []int // starts[k] = global index of shard k's first sample; len(readers)+1 entries

	Count, FeatLen, LabLen int
}

// OpenShardSet opens the given shard files as one set. Every shard must
// agree on FeatLen and LabLen; corrupt or truncated files fail here (see
// OpenShard) rather than mid-training.
func OpenShardSet(paths ...string) (*ShardSet, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("data: shard set needs at least one file")
	}
	s := &ShardSet{starts: make([]int, 0, len(paths)+1)}
	for _, path := range paths {
		r, err := OpenShard(path)
		if err != nil {
			s.Close()
			return nil, err
		}
		if len(s.readers) == 0 {
			s.FeatLen, s.LabLen = r.FeatLen, r.LabLen
		} else if r.FeatLen != s.FeatLen || r.LabLen != s.LabLen {
			r.Close()
			s.Close()
			return nil, fmt.Errorf("data: %s layout %d/%d disagrees with the set's %d/%d",
				path, r.FeatLen, r.LabLen, s.FeatLen, s.LabLen)
		}
		s.starts = append(s.starts, s.Count)
		s.readers = append(s.readers, r)
		s.Count += r.Count
	}
	s.starts = append(s.starts, s.Count)
	return s, nil
}

// Close releases every underlying file, returning the first error.
func (s *ShardSet) Close() error {
	var first error
	for _, r := range s.readers {
		if err := r.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.readers = nil
	return first
}

// locate maps a global sample index to (shard, local index) by binary
// search over the cumulative starts. Hand-rolled so the ingest hot path
// stays allocation-free (sort.Search takes an escaping closure).
func (s *ShardSet) locate(i int) (shard, local int) {
	lo, hi := 0, len(s.readers)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.starts[mid] <= i {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, i - s.starts[lo]
}

// Shards returns the number of files in the set. Together with ShardRange
// it exposes the file boundaries as scheduling units: the bulk-inference
// fleet steals whole shards, so a shard is the granule that gets requeued
// when a backend dies mid-scan.
func (s *ShardSet) Shards() int { return len(s.readers) }

// ShardRange returns the half-open global sample range [lo, hi) that shard
// k covers. Panics on a shard index outside [0, Shards()).
func (s *ShardSet) ShardRange(k int) (lo, hi int) {
	if k < 0 || k >= len(s.readers) {
		panic(fmt.Sprintf("data: shard %d out of range [0,%d)", k, len(s.readers)))
	}
	return s.starts[k], s.starts[k+1]
}

// ScratchLen returns 0: reads go straight into the caller's slices and
// need no scratch. It stays for callers that size ReadBatchInto's scratch
// by it.
func (s *ShardSet) ScratchLen() int { return 0 }

// ReadSample reads global sample i's features (and labels when labels is
// non-nil) into the provided slices. The set itself holds no mutable
// state, so distinct callers may read concurrently.
func (s *ShardSet) ReadSample(i int, features []float32, labels []int32) error {
	if i < 0 || i >= s.Count {
		return fmt.Errorf("data: sample %d out of range [0,%d)", i, s.Count)
	}
	k, local := s.locate(i)
	return s.readers[k].ReadSample(local, features, labels)
}

// ReadBatchInto gathers the indexed samples into a contiguous feature
// buffer of len(idx)·FeatLen floats (and len(idx)·LabLen labels when labels
// is non-nil) — the pipeline staging form, allocation-free. Each run of
// consecutive indices inside one shard is one read per region, straight
// into the destination (see ShardReader.readRun). scratch is unused.
func (s *ShardSet) ReadBatchInto(idx []int, features []float32, labels []int32, scratch []byte) error {
	if len(features) != len(idx)*s.FeatLen {
		return fmt.Errorf("data: feature buffer %d != %d×%d", len(features), len(idx), s.FeatLen)
	}
	if labels != nil && len(labels) != len(idx)*s.LabLen {
		return fmt.Errorf("data: label buffer %d != %d×%d", len(labels), len(idx), s.LabLen)
	}
	for b := 0; b < len(idx); {
		i := idx[b]
		if i < 0 || i >= s.Count {
			return fmt.Errorf("data: sample %d out of range [0,%d)", i, s.Count)
		}
		k, local := s.locate(i)
		n := 1
		for b+n < len(idx) && idx[b+n] == i+n && i+n < s.starts[k+1] {
			n++
		}
		var lab []int32
		if labels != nil {
			lab = labels[b*s.LabLen : (b+n)*s.LabLen]
		}
		if err := s.readers[k].readRun(local, features[b*s.FeatLen:(b+n)*s.FeatLen], lab); err != nil {
			return err
		}
		b += n
	}
	return nil
}

// WriteShards splits count samples across numShards files named
// shard-NNNN.shard under dir (created if needed) and returns their paths in
// index order. Shares come from Split; with more shards requested than
// samples the empty tails are simply not written, so every returned path
// holds at least one sample.
func WriteShards(dir string, numShards, count, featLen, labLen int, features []float32, labels []int32) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for i, span := range Split(count, numShards) {
		lo, hi := span[0], span[1]
		if hi == lo {
			continue // Split(parts > n) yields empty ranges; skip, don't write zero shards
		}
		path := filepath.Join(dir, fmt.Sprintf("shard-%04d.shard", i))
		var labs []int32
		if labels != nil {
			labs = labels[lo*labLen : hi*labLen]
		}
		if err := WriteShard(path, hi-lo, featLen, labLen,
			features[lo*featLen:hi*featLen], labs); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

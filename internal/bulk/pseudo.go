package bulk

import (
	"fmt"

	"deep15pf/internal/data"
)

// PseudoStats summarises a thresholding pass.
type PseudoStats struct {
	Total    int     // samples scored
	Kept     int     // samples at or above the confidence threshold
	Coverage float64 // Kept/Total
}

// WritePseudoShards is the factory's output stage: every sample whose
// top-1 confidence reaches threshold is written back as a (features,
// argmax-label) pair across numShards labeled shard files under dir —
// exactly the layout hep.LoadShardDataset and the -unlabeled-dir training
// flag consume. Features are re-read from the source set (the factory
// never holds the full feature matrix in memory during scoring), so the
// written floats are bit-identical to the input shards.
//
// A threshold nothing survives yields no files at all — WriteShards skips
// empty spans rather than writing 0-sample shards the reader would reject.
func WritePseudoShards(dir string, numShards int, ss *data.ShardSet, p *Predictions, threshold float32) ([]string, PseudoStats, error) {
	if len(p.Conf) != ss.Count || len(p.Label) != ss.Count {
		return nil, PseudoStats{}, fmt.Errorf("bulk: predictions cover %d samples, set holds %d", len(p.Conf), ss.Count)
	}
	st := PseudoStats{Total: ss.Count}
	kept := make([]int, 0, ss.Count)
	for i, c := range p.Conf {
		if c >= threshold {
			kept = append(kept, i)
		}
	}
	st.Kept = len(kept)
	if st.Total > 0 {
		st.Coverage = float64(st.Kept) / float64(st.Total)
	}

	feats := make([]float32, len(kept)*ss.FeatLen)
	labels := make([]int32, len(kept))
	if err := ss.ReadBatchInto(kept, feats, nil, nil); err != nil {
		return nil, st, err
	}
	for bi, i := range kept {
		labels[bi] = p.Label[i]
	}
	paths, err := data.WriteShards(dir, numShards, len(kept), ss.FeatLen, 1, feats, labels)
	if err != nil {
		return nil, st, err
	}
	return paths, st, nil
}

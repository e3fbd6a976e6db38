package hep

// This file is the pseudo-label flywheel's dataset support: the
// train → serve → label → retrain loop moves (features, label) pairs
// through the D15P shard format bit-exactly (data.WriteShards writes them,
// LoadShardDataset reads them back), and Append merges the human-labeled set with a
// machine-labeled one so TrainingProblem.SampleWeights can discount the
// latter.

import (
	"fmt"
	"math"

	"deep15pf/internal/data"
	"deep15pf/internal/tensor"
)

// LoadShardDataset opens labeled shard files (labLen 1, as the
// pseudo-label factory writes them) as an in-memory Dataset.
// The image side length is recovered from the feature length, which must
// be Channels·S·S for integer S. Events is nil — generated pseudo-labels
// carry no truth-level event record.
func LoadShardDataset(paths ...string) (*Dataset, error) {
	ss, err := data.OpenShardSet(paths...)
	if err != nil {
		return nil, err
	}
	defer ss.Close()
	if ss.LabLen != 1 {
		return nil, fmt.Errorf("hep: labeled shards carry %d labels per sample, want 1", ss.LabLen)
	}
	side := math.Sqrt(float64(ss.FeatLen) / Channels)
	size := int(side)
	if float64(size) != side || size < 1 {
		return nil, fmt.Errorf("hep: feature length %d is not %d×S×S", ss.FeatLen, Channels)
	}
	images := tensor.New(ss.Count, Channels, size, size)
	labels32 := make([]int32, ss.Count)
	idx := make([]int, ss.Count)
	for i := range idx {
		idx[i] = i
	}
	if err := ss.ReadBatchInto(idx, images.Data, labels32, nil); err != nil {
		return nil, err
	}
	labels := make([]int, ss.Count)
	for i, l := range labels32 {
		labels[i] = int(l)
	}
	return &Dataset{Images: images, Labels: labels}, nil
}

// Append returns a new Dataset holding d's samples followed by o's. Shapes
// must agree. Events are concatenated only when both sides carry them
// (pseudo-labeled sets do not; a mixed append drops the record rather than
// misaligning it).
func (d *Dataset) Append(o *Dataset) *Dataset {
	ds, os := d.Images.Shape, o.Images.Shape
	if ds[1] != os[1] || ds[2] != os[2] || ds[3] != os[3] {
		panic(fmt.Sprintf("hep: Append shape mismatch %v vs %v", ds, os))
	}
	n := ds[0] + os[0]
	images := tensor.New(n, ds[1], ds[2], ds[3])
	copy(images.Data, d.Images.Data)
	copy(images.Data[d.Images.Len():], o.Images.Data)
	labels := make([]int, 0, n)
	labels = append(labels, d.Labels...)
	labels = append(labels, o.Labels...)
	var events []Event
	if d.Events != nil && o.Events != nil {
		events = append(append([]Event(nil), d.Events...), o.Events...)
	}
	return &Dataset{Images: images, Labels: labels, Events: events}
}

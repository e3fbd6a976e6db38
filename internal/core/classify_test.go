package core

import (
	"testing"

	"deep15pf/internal/data"
	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

// TestClassifierStagesDatasetBytes checks what the replica tests cannot,
// for the hook hep and astro share: Stage puts each sample's image, label
// and loss weight in the slot in index order — from memory and from shard
// files alike — restaging at a smaller batch leaves no tail behind, and
// Step's loss is the weighted softmax cross-entropy of the net's own
// logits over exactly those samples.
func TestClassifierStagesDatasetBytes(t *testing.T) {
	const n, per = 10, 3 * 4 * 4
	rng := tensor.NewRNG(17)
	images := tensor.New(n, 3, 4, 4)
	rng.FillNorm(images, 0, 1)
	labels := make([]int, n)
	weights := make([]float32, n)
	for i := range labels {
		labels[i] = i % 2
		weights[i] = 0.25 + float32(i)
	}
	paths, err := data.WriteShards(t.TempDir(), 3, n, per, 0, images.Data, nil)
	if err != nil {
		t.Fatal(err)
	}
	set, err := data.OpenShardSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()

	newNet := func() *nn.Network {
		r := tensor.NewRNG(5)
		return nn.NewNetwork("cls", 3, 4, 4).Add(
			nn.NewConv2D("conv", 3, 4, 3, 1, 1, r), nn.NewReLU("relu"),
			nn.NewGlobalAvgPool("gap"), nn.NewDense("fc", 4, 2, r))
	}
	for _, tc := range []struct {
		name    string
		backing *data.ShardSet
		weights []float32
	}{
		{"memory", nil, nil},
		{"memory weighted", nil, weights},
		{"shards weighted", set, weights},
	} {
		c := NewClassifier(newNet(), images, labels, tc.backing, tc.weights)
		c.Reserve(2, 4)
		for _, idx := range [][]int{{9, 0, 4, 7}, {3, 8}} {
			if err := c.Stage(2, idx); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			s := c.slots[2]
			if s.x.Shape[0] != len(idx) || len(s.labels) != len(idx) || (tc.weights != nil) != (s.weights != nil) {
				t.Fatalf("%s %v: staged x %v, %d labels, weights %v", tc.name, idx, s.x.Shape, len(s.labels), s.weights)
			}
			for bi, i := range idx {
				for j, v := range images.Data[i*per : (i+1)*per] {
					if s.x.Data[bi*per+j] != v {
						t.Fatalf("%s %v: sample %d pixel %d is %v, dataset has %v", tc.name, idx, i, j, s.x.Data[bi*per+j], v)
					}
				}
				if s.labels[bi] != labels[i] || (tc.weights != nil && s.weights[bi] != weights[i]) {
					t.Fatalf("%s %v: sample %d staged label %d weights %v", tc.name, idx, i, s.labels[bi], s.weights)
				}
			}
			logits := nn.Compile(newNet(), len(idx), true, nil).Forward(s.x)
			want := nn.SoftmaxCrossEntropyWeightedInto(logits, s.labels, s.weights, tensor.New(len(idx), 2))
			if got := c.Step(2, nil, nil); got != want {
				t.Fatalf("%s %v: Step loss %v, reference %v", tc.name, idx, got, want)
			}
		}
	}
}

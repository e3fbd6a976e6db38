package astro

import (
	"testing"

	"deep15pf/internal/data"
	"deep15pf/internal/hep"
	"deep15pf/internal/tensor"
)

// TestGeneratorDeterminism pins the seeded-generator contract the golden
// machinery stands on: identical seeds produce bitwise-identical datasets.
func TestGeneratorDeterminism(t *testing.T) {
	gen := func(seed uint64) *hep.Dataset {
		return GenerateDataset(DefaultGenConfig(), NewRenderer(16), 24, tensor.NewRNG(seed))
	}
	a, b := gen(11), gen(11)
	for i, v := range a.Images.Data {
		if b.Images.Data[i] != v {
			t.Fatalf("same seed diverges at element %d", i)
		}
	}
	for i, l := range a.Labels {
		if b.Labels[i] != l {
			t.Fatalf("same seed diverges at label %d", i)
		}
	}
	c := gen(12)
	same := true
	for i, v := range a.Images.Data {
		if c.Images.Data[i] != v {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical images")
	}
}

// TestDatasetShapeAndClasses checks the rendered layout and that the
// balanced generator covers every morphology class.
func TestDatasetShapeAndClasses(t *testing.T) {
	ds := GenerateDataset(DefaultGenConfig(), NewRenderer(16), 60, tensor.NewRNG(3))
	s := ds.Images.Shape
	if s[0] != 60 || s[1] != Channels || s[2] != 16 || s[3] != 16 {
		t.Fatalf("image shape %v", s)
	}
	// The objects behind the cutouts: GenerateDataset draws them first from
	// the same stream.
	objects, _ := DefaultGenConfig().GenerateObjects(60, tensor.NewRNG(3))
	var seen [NumClasses]int
	for i, l := range ds.Labels {
		if l < 0 || l >= NumClasses {
			t.Fatalf("label %d out of range", l)
		}
		if objects[i].Class != l {
			t.Fatalf("object %d class %d, label %d", i, objects[i].Class, l)
		}
		seen[l]++
	}
	for c, n := range seen {
		if n == 0 {
			t.Fatalf("class %s never drawn in 60 samples", ClassNames[c])
		}
	}
	// Every cutout must carry light (the preselection guarantees a source).
	per := Channels * 16 * 16
	for i := 0; i < 60; i++ {
		var sum float32
		for _, v := range ds.Images.Data[i*per : (i+1)*per] {
			if v < 0 {
				t.Fatalf("sample %d has negative intensity after log stretch", i)
			}
			sum += v
		}
		if sum == 0 {
			t.Fatalf("sample %d rendered empty", i)
		}
	}
}

// TestShardRoundTrip pins the on-disk path: shards must return the exact
// float bits the renderer produced.
func TestShardRoundTrip(t *testing.T) {
	ds := GenerateDataset(DefaultGenConfig(), NewRenderer(16), 10, tensor.NewRNG(7))
	paths, err := ds.SaveShards(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	set, err := data.OpenShardSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if set.Count != 10 {
		t.Fatalf("shard set holds %d samples, want 10", set.Count)
	}
	per := ds.Images.Shape[1] * ds.Images.Shape[2] * ds.Images.Shape[3]
	idx := []int{9, 0, 4}
	out := make([]float32, len(idx)*per)
	if err := set.ReadBatchInto(idx, out, nil, make([]byte, set.ScratchLen())); err != nil {
		t.Fatal(err)
	}
	for bi, i := range idx {
		for j := 0; j < per; j++ {
			if out[bi*per+j] != ds.Images.Data[i*per+j] {
				t.Fatalf("sample %d diverges at %d after shard round-trip", i, j)
			}
		}
	}
}

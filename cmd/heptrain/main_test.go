package main

import (
	"testing"

	"deep15pf/internal/ckpt"
	"deep15pf/internal/hep"
	"deep15pf/internal/tensor"
)

// TestManifestEpochCountsTheSetTrainedOn: checkpoint manifests count epochs
// against the dataset the problem was built on, not against -train. With
// -unlabeled-frac cutting the set (CI's flywheel smoke) or -unlabeled-dir
// appending to it, the two differ; computed against 96, every row below
// would read epoch 1.
func TestManifestEpochCountsTheSetTrainedOn(t *testing.T) {
	pseudo := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(16), 128, 0.5, tensor.NewRNG(9))
	pseudoDir := t.TempDir()
	if _, err := pseudo.SaveLabeledShards(pseudoDir, 2); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name      string
		extra     []string
		wantEpoch int // 10 steps x 16 samples = 160 samples seen
	}{
		{"as generated: 96 events", nil, 1},
		{"cut to 65 events", []string{"-unlabeled-frac", "0.33"}, 2},
		{"appended to 224 events", []string{"-unlabeled-dir", pseudoDir}, 0},
		{"cut and appended: 193 events", []string{"-unlabeled-frac", "0.33", "-unlabeled-dir", pseudoDir}, 0},
		{"cut to 24 events", []string{"-unlabeled-frac", "0.75"}, 6},
	} {
		dir := t.TempDir()
		args := append([]string{"-train", "96", "-test", "16", "-iters", "10", "-batch", "16",
			"-ckpt-dir", dir, "-ckpt-every", "10", "-ckpt-async=false"}, tc.extra...)
		if err := run(args); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		store, err := ckpt.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		m, ok, err := store.Latest()
		if err != nil || !ok {
			t.Fatalf("%s: no manifest (ok=%v err=%v)", tc.name, ok, err)
		}
		if m.Step != 10 || m.Epoch != tc.wantEpoch {
			t.Errorf("%s: manifest step %d epoch %d, want step 10 epoch %d", tc.name, m.Step, m.Epoch, tc.wantEpoch)
		}
	}
}

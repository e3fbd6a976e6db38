package main

import (
	"os"
	"strings"
	"testing"

	"deep15pf/internal/ckpt"
	"deep15pf/internal/hep"
	"deep15pf/internal/tensor"
)

// TestScoresOnlyAVerifiedVersion: -ckpt-dir scores the store's newest
// version only once its payload CRCs pass. The D15W loader checks blob
// names and sizes, not the bytes, so one flipped payload byte in the newest
// weights would otherwise be scored without a word.
func TestScoresOnlyAVerifiedVersion(t *testing.T) {
	model := hep.ModelConfig{Name: "heptrain", ImageSize: 8, Filters: 4, ConvUnits: 2, Classes: 2}
	in := t.TempDir()
	pool := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(8), 8, 0.5, tensor.NewRNG(3))
	if _, err := pool.SaveShards(in, 1); err != nil {
		t.Fatal(err)
	}
	store, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 2; step++ {
		net := hep.BuildNet(model, tensor.NewRNG(uint64(step)))
		if _, err := store.Save(&ckpt.Snapshot{Step: step, Arch: "heptrain", Problem: "hep", Params: net.Params()}); err != nil {
			t.Fatal(err)
		}
	}
	args := []string{"-in", in, "-ckpt-dir", store.Dir(), "-size", "8", "-filters", "4", "-units", "2", "-threshold", "0"}
	if err := run(append(args, "-out", t.TempDir())); err != nil {
		t.Fatalf("scoring a clean store: %v", err)
	}

	w := store.WeightsPath(2)
	raw, err := os.ReadFile(w)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 1 // the last byte of the last weight
	if err := os.WriteFile(w, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-out", t.TempDir())); err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("scoring a store whose newest weights are corrupt: %v, want a CRC error", err)
	}
}

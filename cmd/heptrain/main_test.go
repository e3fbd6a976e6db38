package main

import (
	"io"
	"os"
	"regexp"
	"testing"

	"deep15pf/internal/ckpt"
	"deep15pf/internal/data"
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
	labels := make([]int32, len(pseudo.Labels))
	for i, l := range pseudo.Labels {
		labels[i] = int32(l)
	}
	s := pseudo.Images.Shape
	if _, err := data.WriteShards(pseudoDir, 2, s[0], s[1]*s[2]*s[3], 1, pseudo.Images.Data, labels); err != nil {
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

var fingerprintLine = regexp.MustCompile(`final weight fingerprint ([0-9a-f]{16})`)

// fingerprintOf runs heptrain in process over args and returns the final
// weight fingerprint it prints.
func fingerprintOf(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	err = run(args)
	os.Stdout = stdout
	w.Close()
	text := <-out
	if err != nil {
		t.Fatalf("heptrain %v: %v", args, err)
	}
	m := fingerprintLine.FindSubmatch(text)
	if m == nil {
		t.Fatalf("heptrain %v: no fingerprint line in:\n%s", args, text)
	}
	return string(m[1])
}

// TestFingerprintsPinned holds heptrain's smoke run to its pinned final
// weights under every kernel table the host has: a one-bit change to the
// generated events, the trajectory or any ISA's kernels fails it.
func TestFingerprintsPinned(t *testing.T) {
	const want = "2ea419fc80d483cb"
	defer tensor.SetKernels("auto")
	for _, isa := range tensor.KernelISAs() {
		if got := fingerprintOf(t, "-iters", "6", "-train", "96", "-test", "64", "-batch", "16", "-kernels", isa); got != want {
			t.Errorf("-kernels=%s: final weight fingerprint %s, want %s", isa, got, want)
		}
	}
}

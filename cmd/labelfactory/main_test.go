package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"

	"deep15pf/internal/ckpt"
	"deep15pf/internal/core"
	"deep15pf/internal/hep"
	"deep15pf/internal/opt"
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

// heptrainPool builds in process the pool and store that `heptrain -iters
// 25 -train n -test 32 -batch 16 -unlabeled-frac 0.33 -emit-unlabeled
// pool -ckpt-dir store -ckpt-every 25` leaves, weight for weight: n events
// at heptrain's seed, the last third written as four unlabeled shards,
// and the rest trained on into a one-version store.
func heptrainPool(t *testing.T, n int) (pool, store string) {
	t.Helper()
	model := hep.ModelConfig{Name: "heptrain", ImageSize: 16, Filters: 8, ConvUnits: 3, Classes: 2}
	events := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(16), n, 0.5, tensor.NewRNG(42))
	cut := n - int(float64(n)*0.33)
	subset := func(lo, hi int) *hep.Dataset {
		idx := make([]int, hi-lo)
		for i := range idx {
			idx[i] = lo + i
		}
		x, labels := events.Batch(idx)
		return &hep.Dataset{Images: x, Labels: labels}
	}
	pool = t.TempDir()
	if _, err := subset(cut, n).SaveShards(pool, 4); err != nil {
		t.Fatal(err)
	}
	problem := hep.NewTrainingProblem(subset(0, cut), model, 43)
	res := core.TrainSync(problem, core.Config{
		Groups: 1, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 25,
		Solver: opt.NewAdamFull(2e-3, 0.9, 0.999, 1e-8), Seed: 42,
	})
	st, err := ckpt.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	net := problem.TrainedNet(res.FinalWeights)
	if _, err := st.Save(&ckpt.Snapshot{Step: 25, Arch: "heptrain", Problem: "hep", Params: net.Params()}); err != nil {
		t.Fatal(err)
	}
	return pool, st.Dir()
}

var predictionLine = regexp.MustCompile(`prediction fingerprint ([0-9a-f]{16})`)

// fingerprintOf runs labelfactory in process over args and returns the
// prediction fingerprint it prints.
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
		t.Fatalf("labelfactory %v: %v", args, err)
	}
	m := predictionLine.FindSubmatch(text)
	if m == nil {
		t.Fatalf("labelfactory %v: no fingerprint line in:\n%s", args, text)
	}
	return string(m[1])
}

// TestFingerprintsPinned holds labelfactory's scores to their pins under
// every kernel table the host has: the 99-event pool of a 300-event
// heptrain run and the flywheel's 31-event pool of a 96-event run, each
// fp32 and -int8. A one-bit change to any label or confidence fails it. At
// -batch 40 the 99 events are cut into tiles of 32, 8, 32, 8 and 19; the
// fp32 scores do not move, and the int8 pin does only because -int8
// calibrates on the first -batch events.
func TestFingerprintsPinned(t *testing.T) {
	defer tensor.SetKernels("auto")
	pool, store := heptrainPool(t, 300)
	flyPool, flyStore := heptrainPool(t, 96)
	pins := []struct {
		name        string
		pool, store string
		args        []string
		want        string
	}{
		{"fp32", pool, store, nil, "09430b55b65a4006"},
		{"int8", pool, store, []string{"-int8"}, "8dbfb9761afc0fae"},
		{"fp32 -batch 40", pool, store, []string{"-batch", "40"}, "09430b55b65a4006"},
		{"int8 -batch 40", pool, store, []string{"-batch", "40", "-int8"}, "6224c7a12fa976fa"},
		{"flywheel", flyPool, flyStore, nil, "0ae33abfeb4c60ee"},
		{"flywheel int8", flyPool, flyStore, []string{"-int8"}, "d5d6b829b8dd245e"},
	}
	for _, isa := range tensor.KernelISAs() {
		for _, pin := range pins {
			args := append([]string{"-in", pin.pool, "-out", t.TempDir(), "-ckpt-dir", pin.store,
				"-threshold", "0.6", "-kernels", isa}, pin.args...)
			if got := fingerprintOf(t, args...); got != pin.want {
				t.Errorf("%s -kernels=%s: prediction fingerprint %s, want %s", pin.name, isa, got, pin.want)
			}
		}
	}
}

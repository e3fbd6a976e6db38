package main

import (
	"io"
	"os"
	"regexp"
	"testing"

	"deep15pf/internal/tensor"
)

var fingerprintLine = regexp.MustCompile(`final weight fingerprint ([0-9a-f]{16})`)

// fingerprintOf runs climatetrain in process over args and returns the
// final weight fingerprint it prints.
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
		t.Fatalf("climatetrain %v: %v", args, err)
	}
	m := fingerprintLine.FindSubmatch(text)
	if m == nil {
		t.Fatalf("climatetrain %v: no fingerprint line in:\n%s", args, text)
	}
	return string(m[1])
}

// TestFingerprintsPinned holds climatetrain's smoke run — the deconvolution
// and branching plans, two workers — to its pinned final weights under
// every kernel table the host has: a one-bit change to the generated
// fields, the trajectory or any ISA's kernels fails it.
func TestFingerprintsPinned(t *testing.T) {
	const want = "f6e498c23cee6c80"
	defer tensor.SetKernels("auto")
	for _, isa := range tensor.KernelISAs() {
		if got := fingerprintOf(t, "-iters", "6", "-train", "16", "-test", "4", "-batch", "4", "-size", "32", "-workers", "2", "-kernels", isa); got != want {
			t.Errorf("-kernels=%s: final weight fingerprint %s, want %s", isa, got, want)
		}
	}
}

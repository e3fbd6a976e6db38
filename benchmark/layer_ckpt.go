package main

// Adapter for internal/ckpt — the only file of the benchmark that imports
// it. Entry point used: FingerprintWeights. Snapshot timings come from
// core.Result.Ckpt (a ckpt.Stats), read in the workload by field.

import (
	"fmt"

	"deep15pf/internal/ckpt"
)

// weightFingerprint renders the FNV fingerprint of a trained model the way
// the trainers print it, so two commits can be compared by eye.
func weightFingerprint(weights [][][]float32) string {
	return fmt.Sprintf("%016x", ckpt.FingerprintWeights(weights))
}

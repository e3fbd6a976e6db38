// Package serve is the inference side of the train/serve divide: a
// request-queueing, dynamically-batching serving engine over the trained
// models this repository produces. Training (internal/core) optimises
// samples/second at fixed batch shape; serving optimises requests/second
// at bounded tail latency for requests that arrive one at a time. The
// classic resolution — the one every production inference system from TF
// Serving onward uses — is dynamic batching: queue individual requests,
// coalesce them into a tensor batch under a max-batch-size / max-linger
// policy, run one forward pass, and scatter the results back to per-request
// futures.
//
// The pieces:
//
//   - Registry (registry.go) maps architecture names to builders and loads
//     D15W checkpoints (internal/nn/checkpoint.go) into inference replicas
//     of the HEP, astro or climate networks, at float32 or, for the two
//     classifiers, calibrated int8 (see Precision);
//   - the batcher (batcher.go) owns the request queue and the
//     latency/throughput trade-off;
//   - the worker pool (worker.go) runs one model replica per goroutine —
//     replicas are not shareable because each owns its compiled plans;
//   - metrics (metrics.go) tracks p50/p95/p99 end-to-end latency, batch
//     occupancy, and served flop rates (mean and peak, as in the paper's §V).
//
// cmd/deepserve wires a closed-loop load generator to all of it and
// reproduces the batching throughput study; examples/serving is the
// smallest end-to-end tour.
package serve

import (
	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

// Precision selects the serving datapath.
type Precision int

const (
	// Float32 serves with the checkpoint's native float32 weights.
	Float32 Precision = iota
	// Int8 serves the HEP and astro classifiers through the calibrated
	// nn.QuantPlan: conv and dense layers run on the u8·s8 integer kernels
	// with per-channel s8 weights derived at plan-compile time (the
	// replica's fp32 weights stay exact) and u8 activations on the scales
	// LoadedModel.Calibrate freezes. An Int8 model mints serving replicas
	// only once calibrated. The climate detector has no integer datapath,
	// so Registry.Load refuses it at Int8. cmd/deepserve -int8 reports
	// label and logit agreement against the float path.
	Int8
)

// String implements fmt.Stringer.
func (p Precision) String() string {
	if p == Int8 {
		return "int8"
	}
	return "float32"
}

// Model is one servable inference replica. Implementations own compiled
// plans (activation slabs, lowering scratch) that every call reuses, so a
// Model instance must only ever be used by a single goroutine; the worker
// pool mints one replica per worker through LoadedModel.NewReplica.
type Model interface {
	// Arch names the architecture the replica instantiates.
	Arch() string
	// InShape is the per-sample input shape, e.g. [3,224,224].
	InShape() []int
	// OutShape is the per-sample output shape, e.g. [2] class logits.
	OutShape() []int
	// Infer runs a forward pass over a [N, InShape...] batch and returns
	// the [N, OutShape...] outputs. It must not retain x.
	Infer(x *tensor.Tensor) *tensor.Tensor
	// Params exposes the parameter blobs (for checkpoint loading).
	Params() []*nn.Param
	// FwdFLOPsPerSample is the forward-pass flop cost of one sample, the
	// unit the metrics use to convert batch timings into served flop
	// rates.
	FwdFLOPsPerSample() int64
}

// SharedInferer is the throughput-path extension of Model: InferShared
// returns the forward pass's plan-owned output directly, valid only until
// the replica's next forward. Online serving cannot use it — workers slice
// responses into per-request views that outlive the batch, hence Infer's
// defensive copy — but offline bulk scoring consumes each batch before
// submitting the next, so the copy (the online path's one residual
// per-batch allocation) is pure waste there. Same single-goroutine
// contract as Model; implemented by replicas whose datapath runs compiled
// plans (the HEP adapter, fp32 and int8).
type SharedInferer interface {
	Model
	// InferShared runs a [N, InShape...] batch and returns the
	// [N, OutShape...] output owned by the replica's plan. The caller must
	// finish with it (or copy) before the next InferShared/Infer call and
	// must not mutate it.
	InferShared(x *tensor.Tensor) *tensor.Tensor
}

// Package nn is the neural-network layer library: convolution (im2col+GEMM;
// in compiled plans, halo steps that read a padded image in place),
// deconvolution implemented with the convolution-transpose trick the paper
// describes in §III-C, pooling, dense layers, activations, losses, and a
// sequential network container with exact per-layer FLOP and parameter-byte
// accounting (the role Intel SDE plays in the paper's §V methodology).
//
// Conventions: activations are NCHW float32 tensors; per-sample shapes are
// []int{C,H,W} (or []int{F} after flattening); gradients accumulate into
// Param.Grad until Network.ZeroGrad.
package nn

import (
	"fmt"
	"slices"

	"deep15pf/internal/tensor"
)

// Param is one trainable parameter blob (weights or bias) with its gradient
// accumulator. The distributed layer ships Param.Grad.Data over the wire and
// installs fresh Param.W.Data received from parameter servers.
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
}

// NumEl returns the parameter element count.
func (p *Param) NumEl() int { return p.W.Len() }

// Bytes returns the parameter size in bytes (float32 storage).
func (p *Param) Bytes() int64 { return int64(p.W.Len()) * 4 }

// FlopCount carries algorithmic and SIMD-padded ("executed") flop counts for
// one pass over a batch. Algorithmic counts are the textbook 2·M·N·K numbers;
// Executed pads the GEMM dimensions to the AVX-512 single-precision lane
// width (16) the way vectorized kernels on KNL execute masked lanes — this is
// the estimate we report alongside algorithmic flops when reproducing the
// paper's SDE-based flop rates.
type FlopCount struct {
	Fwd, Bwd                 int64
	FwdExecuted, BwdExecuted int64
}

// Total returns forward+backward algorithmic flops.
func (f FlopCount) Total() int64 { return f.Fwd + f.Bwd }

// TotalExecuted returns forward+backward lane-padded flops.
func (f FlopCount) TotalExecuted() int64 { return f.FwdExecuted + f.BwdExecuted }

// Add returns the elementwise sum of two counts.
func (f FlopCount) Add(o FlopCount) FlopCount {
	return FlopCount{
		Fwd: f.Fwd + o.Fwd, Bwd: f.Bwd + o.Bwd,
		FwdExecuted: f.FwdExecuted + o.FwdExecuted, BwdExecuted: f.BwdExecuted + o.BwdExecuted,
	}
}

// Scale returns the count multiplied by n (e.g. batch size).
func (f FlopCount) Scale(n int64) FlopCount {
	return FlopCount{Fwd: f.Fwd * n, Bwd: f.Bwd * n, FwdExecuted: f.FwdExecuted * n, BwdExecuted: f.BwdExecuted * n}
}

// PlanState is one layer's mutable execution state: the input saved for
// backward, pooling/activation bookkeeping, and kernel scratch. Layer
// methods read and write only the state they are handed, never hidden layer
// fields, so the same layer — the same weights — can execute under several
// states at once: each compiled Plan owns one PlanState per training step
// and one shared by its eval steps, and two plans over one network never
// clobber each other's backward bookkeeping.
type PlanState struct {
	// X is the input tensor saved by a train-mode forward; backward reads
	// it for weight gradients. Inference passes leave it nil (and Backward
	// panics), which is what lets inference replicas drop every gradient
	// byte — see Network.ReleaseGradients.
	X *tensor.Tensor
	// Y is the output tensor saved by a train-mode ReLU forward: its sign
	// is the backward gate, so no separate mask is stored.
	Y *tensor.Tensor
	// InShape is the input batch shape recorded by pooling layers.
	InShape []int
	// conv and deconv are the direct step a Conv2D or Deconv2D runs under
	// its own ForwardInto (a plan holds its steps itself), and cb that
	// step's C block.
	conv   *haloConv
	deconv *deconvStep
	cb     []float32
	// Argmax holds the max-pool winners.
	Argmax []int32
}

// Layer is one differentiable stage, executed destination-passing: the
// caller — a compiled Plan, QuantPlan or climate.TrainPlan — owns the
// output tensors and the PlanState, the layer owns only its parameters.
// ForwardInto must run in train mode before BackwardInto; the state keeps
// whatever backward needs. Destinations may hold stale values:
// implementations fully overwrite (or explicitly clear, for
// scatter-accumulate kernels) every element they own.
type Layer interface {
	Name() string
	// OutShape maps a per-sample input shape to the per-sample output shape.
	OutShape(in []int) []int
	// Params returns the trainable parameters; may be empty.
	Params() []*Param
	// FLOPs returns per-sample flop counts for the given per-sample input
	// shape (multiply by batch for a full iteration).
	FLOPs(in []int) FlopCount
	// Reserve pre-sizes st's scratch for batches of up to n samples with
	// per-sample input shape in. After Reserve, passes at or below that
	// batch size perform no steady-state allocation.
	Reserve(st *PlanState, n int, in []int, train bool)
	// ForwardInto computes y = layer(x). y must have the layer's output
	// shape for x's batch size. With train=true, st retains what backward
	// needs; with train=false, st keeps no reference to x.
	ForwardInto(st *PlanState, y, x *tensor.Tensor, train bool)
	// BackwardInto computes dx from dout (shapes fixed by the preceding
	// train-mode ForwardInto) and accumulates parameter gradients into
	// Params().Grad. A nil dx means the input gradient is not wanted:
	// parameter gradients accumulate exactly as otherwise and the work
	// that only feeds dx is skipped (see Plan.BackwardParams).
	BackwardInto(st *PlanState, dx, dout *tensor.Tensor)
}

// lane is the AVX-512 single-precision vector width used for the executed
// flop estimate.
const lane = 16

func padTo(n, m int) int64 {
	if n%m == 0 {
		return int64(n)
	}
	return int64((n/m + 1) * m)
}

func shapeElems(s []int) int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// checkInput is the one input check of Plan and QuantPlan (what names the
// plan in the panic): rank, a batch in [1, capacity], and the per-sample
// shape in. It returns the batch size.
func checkInput(what string, x *tensor.Tensor, in []int, capacity int) int {
	if x.Rank() != len(in)+1 {
		panic(fmt.Sprintf("nn: %s Forward rank %d input, want batch + %v", what, x.Rank(), in))
	}
	n := x.Shape[0]
	if n < 1 || n > capacity {
		panic(fmt.Sprintf("nn: %s Forward batch %d outside [1,%d]", what, n, capacity))
	}
	if !slices.Equal(x.Shape[1:], in) {
		panic(fmt.Sprintf("nn: %s Forward per-sample shape %v, want %v", what, x.Shape[1:], in))
	}
	return n
}

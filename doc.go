// Package deep15pf reproduces "Deep Learning at 15PF: Supervised and
// Semi-Supervised Classification for Scientific Data" (Kurth et al.,
// SC 2017) as a from-scratch Go system: a neural-network stack with exact
// FLOP accounting (internal/nn, internal/tensor), the two scientific
// applications (internal/hep, internal/climate), the hybrid synchronous/
// asynchronous distributed training architecture with per-layer parameter
// servers (internal/core, internal/comm, internal/ps), a calibrated
// discrete-event model of the Cori Phase II machine for the scaling study
// (internal/cluster, internal/sim), and — on the other side of the
// train/serve divide — a dynamically-batching inference serving engine
// over trained checkpoints (internal/serve, cmd/deepserve), with an
// optional int8 low-precision path built on internal/quant.
//
// See DESIGN.md for the system inventory, EXPERIMENTS.md for the
// paper-vs-measured record, benchmark/ for the workloads and metrics every
// change is measured with, and bench_test.go for one go-test benchmark per
// table and figure plus serving and kernel micro-benchmarks.
package deep15pf

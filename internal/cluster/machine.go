// Package cluster is the discrete-event performance model of Cori Phase II
// that stands in for the physical machine in the paper's scaling study
// (Figs 6–8 and §VI-B3). It models the mechanisms the paper identifies as
// decisive at scale:
//
//   - single-node efficiency that falls at small per-node minibatch
//     (DeepBench, §II-A) — the reason hybrid groups with larger per-node
//     batches beat the fully synchronous configuration in strong scaling;
//   - compute jitter whose max-over-N straggler effect grows with the
//     synchronisation domain (§II-B1b, §VIII-A);
//   - per-hop message latency jitter that dominates for HEP's ~12 ms
//     conv layers but is negligible for climate's ~300 ms layers (§VI-B2);
//   - per-layer parameter servers modelled as FIFO queues, so PS
//     saturation under many groups is observable (§III-E);
//   - checkpoint overhead folded into sustained throughput (§VI-B3).
package cluster

import (
	"math"

	"deep15pf/internal/tensor"
)

// MachineSpec describes one node type plus interconnect characteristics.
type MachineSpec struct {
	Name string

	// Node compute (per §IV): cores used for compute, AVX clock, single-
	// precision flops per cycle per core.
	Cores         int
	ClockGHz      float64 // nominal clock (peak arithmetic)
	AVXClockGHz   float64 // sustained AVX clock
	FlopsPerCycle int

	// Interconnect (Aries dragonfly abstraction).
	HopLatency    float64 // base per-tree-step latency, seconds
	Bandwidth     float64 // per-node injection bandwidth, bytes/second
	PSHopLatency  float64 // root-worker↔PS one-way base latency, seconds
	PSBandwidth   float64 // PS link bandwidth, bytes/second
	PSOverhead    float64 // fixed per-request PS occupancy (software stack)
	ComputeJitter float64 // lognormal sigma of per-node per-iteration compute
	MsgJitter     float64 // lognormal sigma of per-hop message latency

	// EndpointFactor models MLSL's proxy-thread endpoints (§III-D): the
	// effective bandwidth multiplier they provide. Setting it to 1.0
	// disables the optimisation (ablation); the default reflects the
	// better network utilisation the paper attributes to endpoints.
	EndpointFactor float64

	// Checkpointing (sustained-rate overhead, §VI-B3).
	CheckpointBandwidth float64 // bytes/second to the filesystem

	// ReadBandwidth is the per-node input-read bandwidth from the parallel
	// filesystem (the paper's non-threaded HDF5 path, §VI-A). Used only
	// when a run models ingest (RunConfig.IngestIO), which reads
	// NetProfile.SampleBytes per sample.
	ReadBandwidth float64 // bytes/second per node
}

// CoriPhaseII returns the calibrated model of a Cori Phase II KNL node
// (§IV): 68-core Xeon Phi 7250, of which 66 run compute; AVX-sustained
// clock 1.2 GHz; 64 single-precision flops/cycle; Aries interconnect.
func CoriPhaseII() MachineSpec {
	return MachineSpec{
		Name:          "cori-phase-ii",
		Cores:         66, // 2 of 68 reserved for the OS (§V)
		ClockGHz:      1.4,
		AVXClockGHz:   1.2,
		FlopsPerCycle: 64,

		HopLatency:    20e-6,
		Bandwidth:     12.5e9, // ~Aries injection bandwidth
		PSHopLatency:  6e-3,   // endpoint + software stack on the PS path
		PSBandwidth:   10e9,
		PSOverhead:    1.5e-3,
		ComputeJitter: 0.04,
		MsgJitter:     0.55,

		EndpointFactor:      1.5,
		CheckpointBandwidth: 1e9,
		ReadBandwidth:       4e9, // per-node Lustre read peak; see NetProfile.ReadEff
	}
}

// PeakFlops returns the per-node peak at nominal clock (the paper's 59
// PF/9688 nodes accounting).
func (m MachineSpec) PeakFlops() float64 {
	return float64(m.Cores) * m.ClockGHz * 1e9 * float64(m.FlopsPerCycle)
}

// SustainedPeakFlops returns the per-node peak at the AVX clock (the
// paper's 50.6 PF machine-wide sustained peak divided by node count).
func (m MachineSpec) SustainedPeakFlops() float64 {
	return float64(m.Cores) * m.AVXClockGHz * 1e9 * float64(m.FlopsPerCycle)
}

// EffCurve is a saturating batch-size→efficiency curve
//
//	eff(b) = Max / (1 + (Knee/b)^Pow)
//
// calibrated per network against the paper's single-node measurements
// (Fig 5) and the strong-scaling saturation points (Fig 6). The sharp
// small-batch knee is the DeepBench effect: GEMM N-dimension collapse.
type EffCurve struct {
	Max, Knee, Pow float64
}

// At evaluates the curve at per-node minibatch b (fractional batches from
// uneven shards are legal).
func (e EffCurve) At(b float64) float64 {
	if b <= 0 {
		return 0
	}
	return e.Max / (1 + math.Pow(e.Knee/b, e.Pow))
}

// maxLogNormal draws the maximum of n lognormal(0, sigma) multipliers —
// the straggler factor for a synchronisation domain of n nodes — in O(1)
// via the inverse-CDF identity max(X₁…Xₙ) ~ F⁻¹(U^(1/n)). Clamped below
// at 1 so jitter can only slow iterations (the barrier waits for the
// slowest node; nodes finishing early do not help).
func maxLogNormal(rng *tensor.RNG, n int, sigma float64) float64 {
	if sigma <= 0 || n <= 0 {
		return 1
	}
	u := rng.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	q := math.Pow(u, 1/float64(n))
	v := math.Exp(sigma * Probit(q))
	if v < 1 {
		return 1
	}
	return v
}

// hopTime draws one allreduce tree-step time for a synchronisation domain
// of n nodes: base latency times the max jitter over the concurrent
// pairwise exchanges of that step.
func (m MachineSpec) hopTime(rng *tensor.RNG, n int) float64 {
	pairs := n / 2
	if pairs < 1 {
		pairs = 1
	}
	return m.HopLatency * maxLogNormal(rng, pairs, m.MsgJitter)
}

// AllReduceTime draws the duration of one allreduce of msgBytes over n
// nodes: a recursive-halving/doubling tree (2·log2 n steps of latency,
// each inflated by the max jitter over its concurrent exchanges) plus the
// classic 2·(n−1)/n bandwidth term, boosted by MLSL endpoints.
func (m MachineSpec) AllReduceTime(rng *tensor.RNG, n int, msgBytes int64) float64 {
	if n <= 1 {
		return 0
	}
	steps := 2 * int(math.Ceil(math.Log2(float64(n))))
	var latency float64
	for i := 0; i < steps; i++ {
		latency += m.hopTime(rng, n)
	}
	bw := m.Bandwidth * m.EndpointFactor
	transfer := 2 * float64(n-1) / float64(n) * float64(msgBytes) / bw
	return latency + transfer
}

// PSLatency draws one root↔PS one-way message latency. The heavier jitter
// on this path (software endpoints, no dedicated collective hardware) is
// what makes hybrid weak scaling trail synchronous for HEP's small, fast
// layers (§VI-B2: the "two additional communication steps … are more
// affected by this variability").
func (m MachineSpec) PSLatency(rng *tensor.RNG) float64 {
	return m.PSHopLatency * rng.LogNormal(0, 0.6)
}

// PSServiceTimeAsym returns the parameter server's service time for one
// layer update: fixed software overhead, receive the gradient (inBytes),
// apply the solver, send the fresh model (outBytes). A PS serving every
// layer of every group accumulates these serially — the saturation
// §III-E's per-layer sharding avoids. The sizes differ when the
// codec-compressed wire pushes a small gradient up but still pulls the full
// fp32 model down. The solver-apply term follows the model size (the
// update is memory-bound on the master copy).
func (m MachineSpec) PSServiceTimeAsym(inBytes, outBytes int64) float64 {
	transfer := float64(inBytes+outBytes) / (m.PSBandwidth * m.EndpointFactor)
	apply := float64(outBytes) / (m.PSBandwidth * 2) // memory-bound update
	return m.PSOverhead + transfer + apply
}

// BroadcastTime draws the root-to-group model broadcast after a PS
// exchange (tree of log2 n hops plus one bandwidth term).
func (m MachineSpec) BroadcastTime(rng *tensor.RNG, n int, msgBytes int64) float64 {
	if n <= 1 {
		return 0
	}
	steps := int(math.Ceil(math.Log2(float64(n))))
	var latency float64
	for i := 0; i < steps; i++ {
		latency += m.hopTime(rng, n)
	}
	return latency + float64(msgBytes)/(m.Bandwidth*m.EndpointFactor)
}

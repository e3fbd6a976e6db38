package cluster

import (
	"sync"

	"deep15pf/internal/climate"
	"deep15pf/internal/hep"
	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

// NetProfile is everything the performance model needs to know about a
// network: per-sample flop counts (taken from the real layer definitions,
// not hand-entered), per-trainable-layer model bytes (the PS payloads and
// allreduce message sizes), and the calibrated batch-efficiency curve.
type NetProfile struct {
	Name            string
	FlopsPerSample  float64 // fwd+bwd algorithmic flops
	ExecPerSample   float64 // fwd+bwd SIMD-lane-padded ("executed") flops
	LayerBytes      []int64 // model bytes per trainable layer, in layer order
	TotalModelBytes int64
	Eff             EffCurve

	// FwdShare is the forward pass's share of per-sample flops; the
	// overlapped-exchange model uses it to place each layer's
	// gradient-completion time inside the iteration (gradients only start
	// appearing once the backward pass begins).
	FwdShare float64
	// LayerBwdFracs is each trainable layer's share of the backward flops
	// (layer order, summing to 1). Backward runs layers in reverse, so the
	// last layer's gradients are ready after its own fraction, the first
	// layer's only at the very end — the schedule the §III-D/E overlap
	// pipelines communication into.
	LayerBwdFracs []float64

	// SampleBytes is the raw input volume per sample (Table I's per-sample
	// share) — what the ingest model reads per iteration when
	// RunConfig.IngestIO is on.
	SampleBytes int64
	// ReadEff is the single-threaded reader's efficiency against the
	// machine's ReadBandwidth, calibrated to the paper's measured Fig 5
	// I/O shares (≈2% of the HEP iteration, ≈13% of climate's — the
	// non-threaded HDF5 reader sustains far less of the link on the
	// 16-channel climate layout than on HEP's 3-channel images).
	ReadEff float64
}

// NumTrainableLayers returns the per-layer parameter-server count the
// hybrid architecture dedicates to this network (§III-E: 6 for HEP, 14 for
// climate).
func (p NetProfile) NumTrainableLayers() int { return len(p.LayerBytes) }

// HEPProfile derives the profile of the paper's supervised HEP network
// from the real model definition (224×224×3, Table II). The network is
// built once per process; every call returns that profile, whose slices
// callers share and must not modify.
//
// Efficiency calibration anchors: 1.90 TF/s at batch 8 on one node
// (Fig 5a) and the strong-scaling saturation of the synchronous
// configuration between 256 and 1024 nodes (Fig 6a), which requires the
// sharp small-batch knee DeepBench reports for minibatches below ~8.
func HEPProfile() NetProfile { return hepProfile() }

var hepProfile = sync.OnceValue(func() NetProfile {
	rng := tensor.NewRNG(0xEC)
	net := hep.BuildNet(hep.PaperConfig(), rng)
	p := profileFromBreakdown("hep", net.FLOPBreakdown(), EffCurve{Max: 0.43, Knee: 3.71, Pow: 2.4})
	p.SampleBytes = 4 * 3 * 224 * 224 // Table I: 3-channel 224×224 fp32
	p.ReadEff = 0.88                  // anchors the blocking I/O share at Fig 5a's ≈2%
	return p
})

// ClimateProfile derives the profile of the semi-supervised climate
// network (768×768×16, Table II), once per process as HEPProfile does:
// its ~900 MB of initialised tensors are drawn only for the shape-derived
// counts read here. Anchors: 2.09 TF/s at batch 8 (Fig 5b)
// and synchronous strong-scaling saturation past 512 nodes (Fig 6b) — a
// slightly gentler knee than HEP because the huge spatial extent keeps
// GEMMs fat even at small batch.
func ClimateProfile() NetProfile { return climateProfile() }

var climateProfile = sync.OnceValue(func() NetProfile {
	rng := tensor.NewRNG(0xC1)
	net := climate.BuildNet(climate.PaperConfig(), rng)
	p := profileFromBreakdown("climate", net.FLOPBreakdown(), EffCurve{Max: 0.43, Knee: 2.91, Pow: 3.1})
	p.SampleBytes = 4 * 16 * 768 * 768 // Table I: 16-channel 768×768 fp32
	p.ReadEff = 0.17                   // anchors the blocking I/O share at Fig 5b's ≈13%
	return p
})

func profileFromBreakdown(name string, rows []nn.LayerFlop, eff EffCurve) NetProfile {
	p := NetProfile{Name: name, Eff: eff}
	var fwd, bwd, trainBwd float64
	for _, r := range rows {
		p.FlopsPerSample += float64(r.Count.Total())
		p.ExecPerSample += float64(r.Count.TotalExecuted())
		fwd += float64(r.Count.Fwd)
		bwd += float64(r.Count.Bwd)
		if r.Bytes > 0 {
			p.LayerBytes = append(p.LayerBytes, r.Bytes)
			p.TotalModelBytes += r.Bytes
			p.LayerBwdFracs = append(p.LayerBwdFracs, float64(r.Count.Bwd))
			trainBwd += float64(r.Count.Bwd)
		}
	}
	if fwd+bwd > 0 {
		p.FwdShare = fwd / (fwd + bwd)
	}
	if trainBwd > 0 {
		for i := range p.LayerBwdFracs {
			p.LayerBwdFracs[i] /= trainBwd
		}
	} else {
		// Degenerate breakdown (no backward flops recorded): spread the
		// readiness schedule evenly rather than poisoning it with NaNs.
		for i := range p.LayerBwdFracs {
			p.LayerBwdFracs[i] = 1 / float64(len(p.LayerBwdFracs))
		}
	}
	return p
}

// NodeFlopRate returns the modelled per-node algorithmic flop rate at the
// given per-node minibatch.
func (p NetProfile) NodeFlopRate(m MachineSpec, batchPerNode float64) float64 {
	return m.SustainedPeakFlops() * p.Eff.At(batchPerNode)
}

// ComputeTime returns the jitter-free time for one node to process
// batchPerNode samples.
func (p NetProfile) ComputeTime(m MachineSpec, batchPerNode float64) float64 {
	if batchPerNode <= 0 {
		return 0
	}
	return batchPerNode * p.FlopsPerSample / p.NodeFlopRate(m, batchPerNode)
}

// ReadTime returns the time for one node's single-threaded reader to stage
// batchPerNode samples from the filesystem (deterministic — the ingest
// model adds no jitter, so enabling it never perturbs the RNG stream).
func (p NetProfile) ReadTime(m MachineSpec, batchPerNode float64) float64 {
	if batchPerNode <= 0 || p.SampleBytes <= 0 || m.ReadBandwidth <= 0 {
		return 0
	}
	eff := p.ReadEff
	if eff <= 0 {
		eff = 1
	}
	return batchPerNode * float64(p.SampleBytes) / (m.ReadBandwidth * eff)
}

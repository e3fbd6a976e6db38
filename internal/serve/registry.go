package serve

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"sync"

	"deep15pf/internal/astro"
	"deep15pf/internal/climate"
	"deep15pf/internal/hep"
	"deep15pf/internal/nn"
	"deep15pf/internal/quant"
	"deep15pf/internal/tensor"
)

// weightQuantSeed seeds the stochastic weight rounding at checkpoint load
// for adapters still on the emulated int8 path (climate). It is fixed so
// every replica of an int8 model quantises identically — which worker
// serves a request must not change the answer. The HEP adapter's int8 path
// is real (nn.QuantPlan) and uses deterministic round-to-nearest instead.
const weightQuantSeed = 0x8b1d

// Builder constructs a fresh, randomly initialised replica of a named
// architecture at the requested precision. The initial weights are
// irrelevant (a checkpoint overwrites them); what matters is that parameter
// names and sizes reproduce the architecture the checkpoint was trained on,
// which the D15W loader validates blob by blob.
type Builder func(prec Precision) Model

// Registry maps architecture names to builders. Checkpoints are loaded *by
// architecture*: the registry instantiates the named architecture and
// streams the D15W blob into its parameters, refusing mismatched names or
// sizes, so a checkpoint cannot silently serve through the wrong network.
// Each architecture may also carry a workload (problem) label — hep,
// climate, astro — which CheckManifest holds against checkpoint manifests
// so a model zoo cannot route one science problem's weights through
// another's serving stack even when the architectures happen to coincide.
type Registry struct {
	mu    sync.RWMutex
	archs map[string]archEntry
}

// archEntry is one registered architecture: its builder plus the workload
// label ("" for problem-agnostic registrations).
type archEntry struct {
	build   Builder
	problem string
}

// ModelInfo is one Models() row: an architecture and its workload label.
type ModelInfo struct {
	Arch    string
	Problem string // "" when registered without a workload label
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{archs: make(map[string]archEntry)}
}

// RegisterArch adds a named architecture with no workload label. Registering
// a duplicate name panics: two builders disagreeing about one name is a
// configuration bug.
func (r *Registry) RegisterArch(name string, b Builder) {
	r.RegisterProblemArch(name, "", b)
}

// RegisterProblemArch adds a named architecture labelled with the workload
// it solves. CheckManifest enforces the label against checkpoint manifests.
func (r *Registry) RegisterProblemArch(name, problem string, b Builder) {
	if name == "" || b == nil {
		panic("serve: RegisterArch needs a name and a builder")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.archs[name]; dup {
		panic(fmt.Sprintf("serve: architecture %q registered twice", name))
	}
	r.archs[name] = archEntry{build: b, problem: problem}
}

// Archs lists the registered architecture names, sorted.
func (r *Registry) Archs() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.archs))
	for n := range r.archs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Models lists the registered architectures with their workload labels,
// sorted by architecture name — the zoo inventory a multi-model server
// prints at startup.
func (r *Registry) Models() []ModelInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]ModelInfo, 0, len(r.archs))
	for n, e := range r.archs {
		out = append(out, ModelInfo{Arch: n, Problem: e.problem})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Arch < out[j].Arch })
	return out
}

// ProblemOf returns the workload label arch was registered with ("" for an
// unlabelled or unknown architecture).
func (r *Registry) ProblemOf(arch string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.archs[arch].problem
}

// CheckManifest verifies a checkpoint manifest against the named
// architecture's registration: the manifest's arch must match the name, and
// its workload label must match the registration's. Empty labels on either
// side pass — pre-PR-10 stores carry no problem field, and unlabelled
// registrations opt out — so the guard tightens only where both ends state
// their workload.
func (r *Registry) CheckManifest(arch string, manifestArch, manifestProblem string) error {
	if manifestArch != "" && manifestArch != arch {
		return fmt.Errorf("serve: checkpoint is arch %q, wanted %q", manifestArch, arch)
	}
	if p := r.ProblemOf(arch); p != "" && manifestProblem != "" && p != manifestProblem {
		return fmt.Errorf("serve: checkpoint is for problem %q, architecture %q serves problem %q — refusing a cross-workload model",
			manifestProblem, arch, p)
	}
	return nil
}

// RegisterHEP registers the supervised HEP classifier (§III-A) at the given
// scale under name.
func RegisterHEP(r *Registry, name string, cfg hep.ModelConfig) {
	r.RegisterProblemArch(name, "hep", func(prec Precision) Model {
		return newNetModel(name, hep.BuildNet(cfg, tensor.NewRNG(0)), prec)
	})
}

// RegisterAstro registers the transfer-learned astronomy classifier (the
// PR 10 workload) at the given scale under name. The astro net is a plain
// nn.Network like the HEP classifier, so it serves through the same planned
// (and int8-capable) adapter.
func RegisterAstro(r *Registry, name string, cfg astro.ModelConfig) {
	r.RegisterProblemArch(name, "astro", func(prec Precision) Model {
		return newNetModel(name, astro.BuildNet(cfg, tensor.NewRNG(0)), prec)
	})
}

// RegisterClimate registers the semi-supervised climate detector (§III-B)
// at the given scale under name. Served inference runs the encoder and the
// three score heads only — the reconstruction decoder exists to regularise
// training and is dead weight at serving time — but the replica still
// carries the decoder parameters so checkpoints from training load intact.
func RegisterClimate(r *Registry, name string, cfg climate.ModelConfig) {
	r.RegisterProblemArch(name, "climate", func(prec Precision) Model {
		return newClimateModel(name, climate.BuildNet(cfg, tensor.NewRNG(0)), prec)
	})
}

// DefaultRegistry returns a registry with the six stock architectures:
// hep-paper, hep-small, climate-paper, climate-small, astro-paper,
// astro-small.
func DefaultRegistry() *Registry {
	r := NewRegistry()
	RegisterHEP(r, "hep-paper", hep.PaperConfig())
	RegisterHEP(r, "hep-small", hep.SmallConfig())
	RegisterClimate(r, "climate-paper", climate.PaperConfig())
	RegisterClimate(r, "climate-small", climate.SmallConfig())
	RegisterAstro(r, "astro-paper", astro.PaperConfig())
	RegisterAstro(r, "astro-small", astro.SmallConfig())
	return r
}

// LoadedModel is a checkpoint bound to an architecture, ready to mint
// per-worker inference replicas. The checkpoint bytes are cached so replica
// minting never re-reads the filesystem.
type LoadedModel struct {
	ModelArch string
	Prec      Precision

	build Builder
	ckpt  []byte
	calib []float32 // frozen activation stats for int8 replicas (nil = dynamic)

	mu     sync.Mutex
	cached Model // the validation replica from Load, handed to the first NewReplica

	inShape, outShape []int
	flopsPerSample    int64
	paramBytes        int64
	weightScales      map[string][]float32 // per-channel int8 scales, captured at Load
}

// Calibrate runs fp32 calibration batches through one replica and freezes
// the observed per-layer activation ranges into every int8 replica minted
// afterwards (nil-calibration replicas fall back to dynamic per-batch
// scales). The replica used for calibration is cached for the next
// NewReplica, already carrying the frozen scales.
func (m *LoadedModel) Calibrate(xs ...*tensor.Tensor) error {
	if len(xs) == 0 {
		return fmt.Errorf("serve: Calibrate needs at least one batch")
	}
	rep, err := m.NewReplica()
	if err != nil {
		return err
	}
	qc, ok := rep.(quantControl)
	if !ok {
		return fmt.Errorf("serve: architecture %q has no native int8 datapath to calibrate", m.ModelArch)
	}
	var calib []float32
	for _, x := range xs {
		s := qc.calibrate(x)
		if calib == nil {
			calib = s
		} else {
			nn.MergeCalibration(calib, s)
		}
	}
	qc.setCalibration(calib)
	m.mu.Lock()
	m.calib = calib
	m.cached = rep
	m.mu.Unlock()
	return nil
}

// WeightScales returns the per-output-channel int8 scales of every
// quantizable weight tensor, keyed by parameter name — stored alongside
// the checkpoint at Load so the int8 grid is inspectable without minting
// a replica. Nil for architectures without a native int8 datapath.
func (m *LoadedModel) WeightScales() map[string][]float32 { return m.weightScales }

// quantControl is implemented by replica adapters with a native int8
// datapath (quantized plans). Adapters without it fall back to the
// emulated weight-round-trip path under Precision Int8.
type quantControl interface {
	calibrate(x *tensor.Tensor) []float32
	setCalibration([]float32)
}

// weightScaler exposes the per-channel int8 weight scales an adapter's
// native datapath would use; Load snapshots them into the LoadedModel.
type weightScaler interface {
	weightScales() map[string][]float32
}

// Load reads a D15W checkpoint from path and binds it to the named
// architecture, validating the fit by instantiating one replica. The
// returned LoadedModel mints additional replicas on demand.
func (r *Registry) Load(arch, path string, prec Precision) (*LoadedModel, error) {
	r.mu.RLock()
	entry, ok := r.archs[arch]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("serve: unknown architecture %q (have %v)", arch, r.Archs())
	}
	build := entry.build
	ckpt, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading checkpoint: %w", err)
	}
	m := &LoadedModel{ModelArch: arch, Prec: prec, build: build, ckpt: ckpt}
	probe, err := m.NewReplica()
	if err != nil {
		return nil, err
	}
	m.inShape = probe.InShape()
	m.outShape = probe.OutShape()
	m.flopsPerSample = probe.FwdFLOPsPerSample()
	for _, p := range probe.Params() {
		m.paramBytes += p.Bytes()
	}
	if ws, ok := probe.(weightScaler); ok {
		m.weightScales = ws.weightScales()
	}
	m.mu.Lock()
	m.cached = probe
	m.mu.Unlock()
	return m, nil
}

// NewReplica instantiates the architecture, installs the checkpoint, applies
// the precision policy, and releases gradient accumulators. Each replica is
// single-goroutine; the server creates one per worker.
func (m *LoadedModel) NewReplica() (Model, error) {
	m.mu.Lock()
	if c := m.cached; c != nil {
		m.cached = nil
		m.mu.Unlock()
		return c, nil
	}
	prec := m.Prec
	calib := m.calib
	m.mu.Unlock()

	model := m.build(prec)
	if err := nn.LoadWeights(bytes.NewReader(m.ckpt), model.Params()); err != nil {
		return nil, fmt.Errorf("serve: checkpoint does not fit architecture %q: %w", m.ModelArch, err)
	}
	if prec == Int8 {
		if qc, ok := model.(quantControl); ok {
			// Native int8 datapath: fp32 weights stay exact; the quantized
			// plan derives its s8 copies (and per-channel scales) from them
			// at compile time, frozen to the loaded calibration if any.
			qc.setCalibration(calib)
		} else {
			rng := tensor.NewRNG(weightQuantSeed)
			for _, p := range model.Params() {
				quant.RoundTripTensor(p.W, rng, true)
			}
		}
	}
	// Gradients are dropped before any plan compiles: replicas hold
	// inference plans only, which by construction retain no gradient or
	// backward buffers (see nn.Compile).
	nn.ReleaseGradients(model.Params())
	return model, nil
}

// InShape returns the per-sample input shape requests must carry.
func (m *LoadedModel) InShape() []int { return m.inShape }

// OutShape returns the per-sample output shape responses carry.
func (m *LoadedModel) OutShape() []int { return m.outShape }

// FwdFLOPsPerSample returns the forward flop cost of one sample.
func (m *LoadedModel) FwdFLOPsPerSample() int64 { return m.flopsPerSample }

// ParamBytes returns the float32 parameter footprint of one replica (the
// int8 path models precision, not storage; see Precision).
func (m *LoadedModel) ParamBytes() int64 { return m.paramBytes }

// ---- nn.Network adapter (HEP and astro classifiers) ----

type netModel struct {
	arch   string
	net    *nn.Network
	prec   Precision
	plans  *nn.PlanCache      // lazily built; one plan per batch-size bucket
	calib  []float32          // frozen activation ranges (nil = dynamic)
	qplans *nn.QuantPlanCache // int8 plans, lazily built per bucket
}

func newNetModel(arch string, net *nn.Network, prec Precision) *netModel {
	return &netModel{arch: arch, net: net, prec: prec}
}

func (m *netModel) Arch() string        { return m.arch }
func (m *netModel) InShape() []int      { return append([]int(nil), m.net.InShape...) }
func (m *netModel) OutShape() []int     { return m.net.OutShape() }
func (m *netModel) Params() []*nn.Param { return m.net.Params() }
func (m *netModel) FwdFLOPsPerSample() int64 {
	return m.net.FLOPsPerSample().Fwd
}

func (m *netModel) calibrate(x *tensor.Tensor) []float32 {
	return nn.CalibrateActivations(m.net, x)
}

func (m *netModel) setCalibration(c []float32) {
	m.calib = c
	m.qplans = nil // compiled plans predate the new scales
}

func (m *netModel) weightScales() map[string][]float32 {
	return nn.WeightScales(m.net)
}

// Infer copies the plan-owned output out for the worker, which may slice
// it into per-request views — the one allocation of a warmed call.
func (m *netModel) Infer(x *tensor.Tensor) *tensor.Tensor {
	return m.InferShared(x).Clone()
}

// InferShared implements SharedInferer: the forward without the defensive
// output copy. The replica keeps one compiled plan per batch-size bucket
// the batcher produces, and a warmed plan forward allocates nothing. Under
// Int8 the plans are quantized: conv and dense run on the u8·s8 integer
// kernels (per-channel weight scales, activation scales frozen by
// calibration or derived per batch).
func (m *netModel) InferShared(x *tensor.Tensor) *tensor.Tensor {
	if m.prec == Int8 {
		if m.qplans == nil {
			m.qplans = nn.NewQuantPlanCache(m.net, m.calib, nil)
		}
		return m.qplans.Forward(x)
	}
	if m.plans == nil {
		m.plans = nn.NewPlanCache(m.net, false, nil)
	}
	return m.plans.Forward(x)
}

// ---- climate.Net adapter (extreme-weather detector) ----

// climateOutChannels is the packed head layout: confidence logit, one
// channel per event class, four box-geometry channels.
const climateOutChannels = 1 + int(climate.NumClasses) + 4

type climateModel struct {
	arch   string
	net    *climate.Net
	prec   Precision
	rng    *tensor.RNG
	scorer *climate.Scorer // encoder + three heads, lazily built
}

func newClimateModel(arch string, net *climate.Net, prec Precision) *climateModel {
	return &climateModel{arch: arch, net: net, prec: prec, rng: tensor.NewRNG(weightQuantSeed + 2)}
}

func (m *climateModel) Arch() string        { return m.arch }
func (m *climateModel) InShape() []int      { return append([]int(nil), m.net.Encoder.InShape...) }
func (m *climateModel) Params() []*nn.Param { return m.net.Params() }

// OutShape packs the three head outputs on the detection grid into one
// tensor: channel 0 is the confidence logit, channels 1..NumClasses are
// class logits, the last four are box geometry (tx, ty, log w, log h).
func (m *climateModel) OutShape() []int {
	g := m.net.GridSize
	return []int{climateOutChannels, g, g}
}

// FwdFLOPsPerSample counts encoder plus heads — the decoder is skipped at
// serving time (roughly halving per-request cost for the paper config).
func (m *climateModel) FwdFLOPsPerSample() int64 {
	total := m.net.Encoder.FLOPsPerSample().Fwd
	feat := m.net.Encoder.OutShape()
	for _, h := range []*nn.Conv2D{m.net.ConfHead, m.net.ClassHead, m.net.BoxHead} {
		total += h.FLOPs(feat).Fwd
	}
	return total
}

// roundTrip is the emulated int8 activation step: a no-op at Float32.
func (m *climateModel) roundTrip(ts ...*tensor.Tensor) {
	if m.prec != Int8 {
		return
	}
	for _, t := range ts {
		quant.RoundTripTensor(t, m.rng, true)
	}
}

// Infer runs the forward-only plans and packs the heads; only the packed
// response allocates. Under Int8 the activations round-trip through the
// int8 grid in place between the planned stages — input, features, then
// each head output, in that order, which fixes the rounding RNG's draws.
func (m *climateModel) Infer(x *tensor.Tensor) *tensor.Tensor {
	if m.scorer == nil {
		m.scorer = m.net.NewScorer()
	}
	m.roundTrip(x)
	feat := m.scorer.Encode(x)
	m.roundTrip(feat)
	out := m.scorer.Heads(feat)
	conf, class, box := out.Conf, out.Class, out.BoxP
	m.roundTrip(conf, class, box)

	n := x.Shape[0]
	g := m.net.GridSize
	plane := g * g
	k := int(climate.NumClasses)
	packed := tensor.New(n, climateOutChannels, g, g)
	per := climateOutChannels * plane
	for s := 0; s < n; s++ {
		dst := packed.Data[s*per : (s+1)*per]
		copy(dst[:plane], conf.Data[s*plane:(s+1)*plane])
		copy(dst[plane:(1+k)*plane], class.Data[s*k*plane:(s+1)*k*plane])
		copy(dst[(1+k)*plane:], box.Data[s*4*plane:(s+1)*4*plane])
	}
	return packed
}

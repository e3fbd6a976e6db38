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
	"deep15pf/internal/tensor"
)

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
// The detector serves at Float32 only: it has no integer datapath.
func RegisterClimate(r *Registry, name string, cfg climate.ModelConfig) {
	r.RegisterProblemArch(name, "climate", func(Precision) Model {
		return &climateModel{arch: name, net: climate.BuildNet(cfg, tensor.NewRNG(0))}
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
	calib []float32 // frozen activation stats for int8 replicas; nil until Calibrate

	mu     sync.Mutex
	cached Model // a replica already minted (Load's probe, Calibrate's), handed out next

	inShape, outShape []int
	flopsPerSample    int64
	paramBytes        int64
	weightScales      map[string][]float32 // per-channel int8 scales, captured at Load
}

// Calibrate runs fp32 calibration batches through one replica and freezes
// the observed per-layer activation ranges into every int8 replica minted
// afterwards. An Int8 model serves only once calibrated. The replica used
// for calibration is cached for the next NewReplica, already carrying the
// frozen scales.
func (m *LoadedModel) Calibrate(xs ...*tensor.Tensor) error {
	if len(xs) == 0 {
		return fmt.Errorf("serve: Calibrate needs at least one batch")
	}
	rep, err := m.mint()
	if err != nil {
		return err
	}
	nm, ok := rep.(*netModel)
	if !ok {
		return fmt.Errorf("serve: architecture %q has no int8 datapath to calibrate", m.ModelArch)
	}
	var calib []float32
	for _, x := range xs {
		s := nn.CalibrateActivations(nm.net, x)
		if calib == nil {
			calib = s
		} else {
			nn.MergeCalibration(calib, s)
		}
	}
	nm.calib = calib
	m.mu.Lock()
	m.calib = calib
	m.cached = rep
	m.mu.Unlock()
	return nil
}

// WeightScales returns the per-output-channel int8 scales of every
// quantizable weight tensor, keyed by parameter name — stored alongside
// the checkpoint at Load so the int8 grid is inspectable without minting
// a replica. Nil for architectures without an int8 datapath.
func (m *LoadedModel) WeightScales() map[string][]float32 { return m.weightScales }

// Load reads a D15W checkpoint from path and binds it to the named
// architecture, validating the fit by instantiating one replica. The
// returned LoadedModel mints additional replicas on demand. At Int8 the
// architecture must have an integer datapath (the HEP and astro
// classifiers do, the climate detector does not).
func (r *Registry) Load(arch, path string, prec Precision) (*LoadedModel, error) {
	r.mu.RLock()
	entry, ok := r.archs[arch]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("serve: unknown architecture %q (have %v)", arch, r.Archs())
	}
	ckpt, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading checkpoint: %w", err)
	}
	m := &LoadedModel{ModelArch: arch, Prec: prec, build: entry.build, ckpt: ckpt}
	probe, err := m.mint()
	if err != nil {
		return nil, err
	}
	m.inShape = probe.InShape()
	m.outShape = probe.OutShape()
	m.flopsPerSample = probe.FwdFLOPsPerSample()
	for _, p := range probe.Params() {
		m.paramBytes += p.Bytes()
	}
	if nm, ok := probe.(*netModel); ok {
		m.weightScales = nn.WeightScales(nm.net)
	}
	m.mu.Lock()
	m.cached = probe
	m.mu.Unlock()
	return m, nil
}

// NewReplica mints a serving replica: the architecture with the checkpoint
// installed at the model's precision and its gradient accumulators
// released. Each replica is single-goroutine; the server creates one per
// worker. An Int8 model mints replicas only after Calibrate.
func (m *LoadedModel) NewReplica() (Model, error) {
	m.mu.Lock()
	uncalibrated := m.Prec == Int8 && m.calib == nil
	m.mu.Unlock()
	if uncalibrated {
		return nil, fmt.Errorf("serve: %q at int8 has no activation scales yet: call Calibrate before minting replicas", m.ModelArch)
	}
	return m.mint()
}

// mint is NewReplica without the calibration check: the cached replica if
// there is one, else a fresh one carrying the current calibration.
func (m *LoadedModel) mint() (Model, error) {
	m.mu.Lock()
	if c := m.cached; c != nil {
		m.cached = nil
		m.mu.Unlock()
		return c, nil
	}
	calib := m.calib
	m.mu.Unlock()

	model := m.build(m.Prec)
	nm, native := model.(*netModel)
	if m.Prec == Int8 && !native {
		return nil, fmt.Errorf("serve: architecture %q has no int8 datapath; serve it at float32", m.ModelArch)
	}
	if err := nn.LoadWeights(bytes.NewReader(m.ckpt), model.Params()); err != nil {
		return nil, fmt.Errorf("serve: checkpoint does not fit architecture %q: %w", m.ModelArch, err)
	}
	if native {
		// The fp32 weights stay exact; an int8 plan derives its s8 copies
		// and per-channel scales from them at compile time.
		nm.calib = calib
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

// ParamBytes returns the float32 parameter footprint of one replica (an
// int8 replica keeps its fp32 weights beside the plans' s8 copies).
func (m *LoadedModel) ParamBytes() int64 { return m.paramBytes }

// ---- nn.Network adapter (HEP and astro classifiers) ----

type netModel struct {
	arch   string
	net    *nn.Network
	prec   Precision
	plans  *nn.PlanCache      // lazily built; one plan per batch-size bucket
	calib  []float32          // frozen activation ranges (Int8 only)
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
// calibration).
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
	scorer *climate.Scorer // encoder + three heads, lazily built
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

// Infer runs the forward-only plans and packs the heads; only the packed
// response allocates.
func (m *climateModel) Infer(x *tensor.Tensor) *tensor.Tensor {
	if m.scorer == nil {
		m.scorer = m.net.NewScorer()
	}
	out := m.scorer.Forward(x)
	conf, class, box := out.Conf, out.Class, out.BoxP

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

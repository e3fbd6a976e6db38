// Package opt implements the paper's two solvers — stochastic gradient
// descent with momentum (climate network) and ADAM (HEP network) — plus the
// momentum-tuning rule for asynchronous training from Mitliagkas et al.
// ("Asynchrony begets momentum", the paper's [31]), which the hybrid system
// uses to tune explicit momentum jointly with the number of compute groups.
//
// Solvers are used in two places: worker-side for fully synchronous training
// and parameter-server-side for the hybrid architecture, where each
// per-layer PS owns the solver state for its layer.
package opt

import (
	"fmt"
	"math"

	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

// Solver applies accumulated gradients to parameters. Implementations keep
// per-parameter state (velocity, moments) keyed by the parameter's weight
// tensor, so one solver instance must always see the same parameter set.
type Solver interface {
	// Name identifies the algorithm ("sgd" or "adam").
	Name() string
	// Step applies params[i].Grad to params[i].W. It does not zero
	// gradients; callers own gradient lifecycle.
	Step(params []*nn.Param)
	// Clone returns a solver with the same hyper-parameters and fresh
	// (zero) state, for spawning per-group or per-PS instances.
	Clone() Solver
}

// SGD is stochastic gradient descent with classical momentum:
//
//	v ← μ·v − lr·g;  w ← w + v
type SGD struct {
	Rate     float64
	Momentum float64
	velocity map[*tensor.Tensor][]float32
}

// NewSGD constructs an SGD solver.
func NewSGD(lr, momentum float64) *SGD {
	if lr <= 0 {
		panic("opt: non-positive learning rate")
	}
	if momentum < 0 || momentum >= 1 {
		panic(fmt.Sprintf("opt: momentum %v out of [0,1)", momentum))
	}
	return &SGD{Rate: lr, Momentum: momentum, velocity: make(map[*tensor.Tensor][]float32)}
}

// Name implements Solver.
func (s *SGD) Name() string { return "sgd" }

// Clone implements Solver.
func (s *SGD) Clone() Solver { return NewSGD(s.Rate, s.Momentum) }

// Step implements Solver.
func (s *SGD) Step(params []*nn.Param) {
	lr := float32(s.Rate)
	mu := float32(s.Momentum)
	for _, p := range params {
		v, ok := s.velocity[p.W]
		if !ok {
			v = make([]float32, p.W.Len())
			s.velocity[p.W] = v
		}
		w := p.W.Data
		g := p.Grad.Data
		// Every product is converted before it is added: the conversion
		// rounds it, so the compiler may not fuse it into the add (arm64
		// would), and the trajectory is the same bits on every machine.
		for i := range w {
			v[i] = float32(mu*v[i]) - float32(lr*g[i])
			w[i] += v[i]
		}
	}
}

// Adam implements Kingma & Ba's ADAM (the paper's [35]), used for the HEP
// network because it "requires less parameter tuning than SGD and
// suppresses high norm variability between gradients of different layers".
type Adam struct {
	Rate         float64
	Beta1, Beta2 float64
	Eps          float64
	t            int
	m, v         map[*tensor.Tensor][]float32
}

// NewAdam constructs an ADAM solver with the standard β₁=0.9, β₂=0.999,
// ε=1e-8 defaults.
func NewAdam(lr float64) *Adam {
	return NewAdamFull(lr, 0.9, 0.999, 1e-8)
}

// NewAdamFull constructs an ADAM solver with explicit moment decay rates.
func NewAdamFull(lr, beta1, beta2, eps float64) *Adam {
	if lr <= 0 {
		panic("opt: non-positive learning rate")
	}
	if beta1 < 0 || beta1 >= 1 || beta2 < 0 || beta2 >= 1 {
		panic("opt: Adam betas out of [0,1)")
	}
	return &Adam{
		Rate: lr, Beta1: beta1, Beta2: beta2, Eps: eps,
		m: make(map[*tensor.Tensor][]float32),
		v: make(map[*tensor.Tensor][]float32),
	}
}

// Name implements Solver.
func (a *Adam) Name() string { return "adam" }

// Clone implements Solver.
func (a *Adam) Clone() Solver { return NewAdamFull(a.Rate, a.Beta1, a.Beta2, a.Eps) }

// Steps returns the number of updates applied so far.
func (a *Adam) Steps() int { return a.t }

// Step implements Solver.
func (a *Adam) Step(params []*nn.Param) {
	a.t++
	b1 := float32(a.Beta1)
	b2 := float32(a.Beta2)
	// Bias-corrected step size folds both corrections into the rate.
	corr := a.Rate * math.Sqrt(1-math.Pow(a.Beta2, float64(a.t))) / (1 - math.Pow(a.Beta1, float64(a.t)))
	lr := float32(corr)
	eps := float32(a.Eps)
	for _, p := range params {
		m, ok := a.m[p.W]
		if !ok {
			m = make([]float32, p.W.Len())
			a.m[p.W] = m
			a.v[p.W] = make([]float32, p.W.Len())
		}
		// One vector pass per parameter, every product rounded before its
		// add, so the same bits on every ISA (tensor.AdamStep).
		tensor.AdamStep(p.W.Data, p.Grad.Data, m, a.v[p.W], b1, b2, lr, eps)
	}
}

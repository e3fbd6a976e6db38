package opt

import (
	"math"
	"testing"
	"testing/quick"

	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

func oneParam(vals ...float32) []*nn.Param {
	w := tensor.FromSlice(append([]float32(nil), vals...), len(vals))
	return []*nn.Param{{Name: "w", W: w, Grad: tensor.New(len(vals))}}
}

func TestSGDPlainStep(t *testing.T) {
	p := oneParam(1)
	p[0].Grad.Data[0] = 2
	s := NewSGD(0.1, 0)
	s.Step(p)
	if math.Abs(float64(p[0].W.Data[0])-0.8) > 1e-6 {
		t.Fatalf("w = %v, want 0.8", p[0].W.Data[0])
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	// With constant gradient g and momentum μ, velocity after k steps is
	// −lr·g·(1+μ+μ²+…); two steps: v₂ = −lr·g(1+μ).
	p := oneParam(0)
	s := NewSGD(0.1, 0.5)
	p[0].Grad.Data[0] = 1
	s.Step(p) // w = -0.1
	s.Step(p) // v = -0.5*0.1 - 0.1 = -0.15; w = -0.25
	if math.Abs(float64(p[0].W.Data[0])+0.25) > 1e-6 {
		t.Fatalf("w = %v, want -0.25", p[0].W.Data[0])
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// Minimise f(w) = (w-3)²/2; gradient w-3.
	p := oneParam(0)
	s := NewSGD(0.1, 0.9)
	for i := 0; i < 300; i++ {
		p[0].Grad.Data[0] = p[0].W.Data[0] - 3
		s.Step(p)
	}
	if math.Abs(float64(p[0].W.Data[0])-3) > 1e-3 {
		t.Fatalf("did not converge: w = %v", p[0].W.Data[0])
	}
}

func TestAdamFirstStepIsLR(t *testing.T) {
	// ADAM's bias correction makes the very first update ≈ lr·sign(g).
	p := oneParam(1)
	p[0].Grad.Data[0] = 7 // any positive value
	a := NewAdam(0.01)
	a.Step(p)
	if math.Abs(float64(p[0].W.Data[0])-(1-0.01)) > 1e-4 {
		t.Fatalf("w = %v, want ~0.99", p[0].W.Data[0])
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := oneParam(-4)
	a := NewAdam(0.05)
	for i := 0; i < 2000; i++ {
		p[0].Grad.Data[0] = p[0].W.Data[0] - 3
		a.Step(p)
	}
	if math.Abs(float64(p[0].W.Data[0])-3) > 1e-2 {
		t.Fatalf("did not converge: w = %v", p[0].W.Data[0])
	}
}

func TestAdamScaleInvariance(t *testing.T) {
	// ADAM normalises per-coordinate: scaling the gradient by a constant
	// must leave the first step (nearly) unchanged — the property the
	// paper cites for suppressing "high norm variability between
	// gradients of different layers".
	p1 := oneParam(0)
	p2 := oneParam(0)
	p1[0].Grad.Data[0] = 1
	p2[0].Grad.Data[0] = 1000
	a1 := NewAdam(0.01)
	a2 := NewAdam(0.01)
	a1.Step(p1)
	a2.Step(p2)
	if math.Abs(float64(p1[0].W.Data[0]-p2[0].W.Data[0])) > 1e-5 {
		t.Fatalf("steps differ: %v vs %v", p1[0].W.Data[0], p2[0].W.Data[0])
	}
}

func TestZeroGradientLeavesParams(t *testing.T) {
	for _, s := range []Solver{NewSGD(0.1, 0.0), NewAdam(0.1)} {
		p := oneParam(2.5)
		s.Step(p)
		if p[0].W.Data[0] != 2.5 {
			t.Fatalf("%s: zero grad moved params to %v", s.Name(), p[0].W.Data[0])
		}
	}
}

func TestSGDZeroGradWithMomentumStillCoasts(t *testing.T) {
	// Velocity persists across steps: after one real gradient, a zero
	// gradient step must still move (momentum coasting).
	p := oneParam(0)
	s := NewSGD(0.1, 0.9)
	p[0].Grad.Data[0] = 1
	s.Step(p)
	w1 := p[0].W.Data[0]
	p[0].Grad.Data[0] = 0
	s.Step(p)
	if p[0].W.Data[0] == w1 {
		t.Fatal("momentum should coast on zero gradient")
	}
}

func TestCloneHasFreshState(t *testing.T) {
	p := oneParam(0)
	s := NewSGD(0.1, 0.9)
	p[0].Grad.Data[0] = 1
	s.Step(p)
	c := s.Clone().(*SGD)
	if c.Rate != 0.1 || c.Momentum != 0.9 {
		t.Fatal("clone lost hyper-parameters")
	}
	if len(c.velocity) != 0 {
		t.Fatal("clone must have fresh state")
	}
	ac := NewAdam(0.3)
	ac.Step(p)
	a2 := ac.Clone().(*Adam)
	if a2.Steps() != 0 || a2.Rate != 0.3 {
		t.Fatal("Adam clone state leak")
	}
}

func TestConstructorValidation(t *testing.T) {
	mustPanic := func(f func()) {
		defer func() { _ = recover() }()
		f()
		t.Fatal("expected panic")
	}
	mustPanic(func() { NewSGD(0, 0) })
	mustPanic(func() { NewSGD(0.1, 1.0) })
	mustPanic(func() { NewAdam(-1) })
	mustPanic(func() { NewAdamFull(0.1, 1.0, 0.9, 1e-8) })
}

// Property: one SGD step with momentum 0 is exactly w − lr·g elementwise.
func TestSGDStepProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rng := tensor.NewRNG(uint64(seed) + 5)
		n := 1 + rng.Intn(16)
		w := tensor.New(n)
		g := tensor.New(n)
		rng.FillNorm(w, 0, 1)
		rng.FillNorm(g, 0, 1)
		want := make([]float32, n)
		for i := range want {
			want[i] = w.Data[i] - 0.05*g.Data[i]
		}
		p := []*nn.Param{{Name: "w", W: w, Grad: g}}
		NewSGD(0.05, 0).Step(p)
		for i := range want {
			if math.Abs(float64(w.Data[i]-want[i])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

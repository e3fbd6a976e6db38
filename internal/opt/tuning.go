package opt

// Momentum/asynchrony interaction, after Mitliagkas et al. (the paper's
// [31]): running G compute groups asynchronously behaves like momentum SGD
// with an *implicit* momentum term ≈ 1 − 1/G on top of whatever explicit
// momentum the solver applies. The paper therefore tunes explicit momentum
// down as the group count rises (its Fig 8 grid is {0.0, 0.4, 0.7}).

// ImplicitMomentum returns the asynchrony-induced momentum for G compute
// groups: 1 − 1/G (zero for the synchronous G=1 case).
func ImplicitMomentum(groups int) float64 {
	if groups <= 1 {
		return 0
	}
	return 1 - 1/float64(groups)
}

// EffectiveMomentum composes explicit solver momentum with the implicit
// asynchrony momentum: the combined geometric memory of an update is
// 1 − (1−μ_explicit)·(1−μ_implicit).
func EffectiveMomentum(explicit float64, groups int) float64 {
	return 1 - float64((1-explicit)*(1-ImplicitMomentum(groups)))
}

// TuneMomentum returns the explicit momentum that makes the effective
// momentum equal target under G groups, clamped to [0, 0.95]. For large G
// the implicit momentum alone exceeds the target and the right setting is
// zero — which matches the paper's observation that the best hybrid runs
// use much lower explicit momentum than the sync run's 0.9.
func TuneMomentum(target float64, groups int) float64 {
	impl := ImplicitMomentum(groups)
	if impl >= target {
		return 0
	}
	// Solve 1 − (1−μ)(1−impl) = target.
	mu := 1 - (1-target)/(1-impl)
	if mu < 0 {
		mu = 0
	}
	if mu > 0.95 {
		mu = 0.95
	}
	return mu
}

// MomentumGrid is the discrete explicit-momentum search set the paper uses
// for hybrid runs in §VI-B4.
var MomentumGrid = []float64{0.0, 0.4, 0.7}

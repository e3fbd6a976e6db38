// Package astro implements the third science workload: morphological
// classification of synthetic astronomical sources, the transfer-learning
// counterpart of the PHANGS-HST star-cluster and DES galaxy-morphology
// pipelines in the paper's related work. Three classes — elliptical
// galaxies, spiral galaxies and star clusters — are drawn as parameterised
// sources and rasterised to 3-band (g/r/i) survey cutouts in the
// hep/climate generator style (deterministic, seeded, shard-backed).
//
// The package holds only what is astronomical: the object generator, the
// renderer, the class names and the model scales. Like those pipelines,
// which fine-tune one pretrained backbone under a new head, astro differs
// from hep in its data and its head, not in its network: the classifier,
// the training problem, the dataset and the scorers are hep's
// (hep.BuildNet with Head, hep.NewTransferProblem, hep.Dataset,
// hep.PredictDataset). So a trained HEP backbone transfers layer for
// layer: `astrotrain -init-from` maps the early conv weights by name and
// shape, freezes them (nn.Network.Freeze) and trains only the astro head.
//
// The substitution preserves what makes the astronomy task hard: all three
// classes have overlapping total flux and extent, so scalar photometry
// (brightness, size) cannot separate them — the discriminating structure is
// spatial (smooth profile vs. arm pattern vs. resolved point sources),
// exactly what a convolutional backbone trained on calorimeter blobs
// already detects.
package astro

import (
	"math"

	"deep15pf/internal/tensor"
)

// Class labels.
const (
	ClassElliptical = 0
	ClassSpiral     = 1
	ClassCluster    = 2
	// NumClasses is the classifier output width.
	NumClasses = 3
)

// ClassNames maps labels to their catalog names.
var ClassNames = [NumClasses]string{"elliptical", "spiral", "cluster"}

// PointSource is one unresolved component: a spiral arm star-forming knot
// or a cluster member star. Positions are in unit image coordinates.
type PointSource struct {
	X, Y  float64
	Flux  float64
	Color float64 // 0 = blue, 1 = red; sets the g/r/i band ratios
}

// Object is one source to rasterise: a smooth light profile plus point
// components, in unit image coordinates.
type Object struct {
	Class  int
	Cx, Cy float64 // center
	Radius float64 // smooth-profile scale radius
	Axis   float64 // projected minor/major axis ratio (1 = face-on/round)
	Theta  float64 // position angle of the major axis
	Flux   float64 // smooth-profile peak surface brightness
	Color  float64 // smooth-light color, 0 = blue .. 1 = red

	// Spiral structure (Class == ClassSpiral).
	Bulge float64 // bulge-to-disk peak ratio
	Arms  int     // arm multiplicity m
	Pitch float64 // logarithmic-spiral winding (brightness phase ∝ ln r / Pitch)

	Points []PointSource // arm knots or member stars
}

// TotalFlux is the detectability proxy the preselection cuts on: peak
// surface brightness plus summed point-source flux.
func (o *Object) TotalFlux() float64 {
	f := o.Flux
	for _, p := range o.Points {
		f += p.Flux
	}
	return f
}

// GenConfig parameterises the synthetic source generator.
type GenConfig struct {
	// Elliptical galaxies: smooth, red, flattened exponential spheroids.
	EllRadius  float64 // mean scale radius (unit coords)
	EllAxisMin float64 // most-flattened axis ratio drawn

	// Spiral galaxies: blue exponential disk + round bulge + log-spiral
	// arm modulation seeded with star-forming knots.
	SpiralRadius float64
	SpiralPitch  float64
	SpiralKnots  float64 // Poisson mean knots per arm
	SpiralBulge  float64 // mean bulge-to-disk ratio

	// Star clusters: little smooth light, N resolved member stars.
	ClusterStars  float64 // Poisson mean member count (≥3 enforced)
	ClusterRadius float64 // member-position spread

	FluxScale float64 // exponential peak-brightness scale, all classes

	// Preselection: sources below this total flux are redrawn — the
	// survey's detectability cut, which keeps the retained sample in the
	// brightness range where the classes overlap photometrically.
	PreselMinFlux float64
}

// DefaultGenConfig returns the tuned generator used throughout the
// reproduction: class-balanced flux distributions with heavily overlapping
// photometry, so only morphology separates the classes.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		EllRadius:  0.16,
		EllAxisMin: 0.45,

		SpiralRadius: 0.20,
		SpiralPitch:  0.28,
		SpiralKnots:  5,
		SpiralBulge:  0.6,

		ClusterStars:  14,
		ClusterRadius: 0.14,

		FluxScale:     2.2,
		PreselMinFlux: 1.2,
	}
}

// genCommon draws the fields every class shares: a jittered center and a
// peak brightness from the common falling spectrum.
func (c GenConfig) genCommon(rng *tensor.RNG, o *Object) {
	o.Cx = 0.5 + 0.08*rng.Norm()
	o.Cy = 0.5 + 0.08*rng.Norm()
	o.Flux = 0.8 + rng.Exp(c.FluxScale)
	o.Theta = (2*rng.Float64() - 1) * math.Pi
}

// genElliptical draws a smooth spheroid: red, structureless, with random
// projection flattening.
func (c GenConfig) genElliptical(rng *tensor.RNG) Object {
	o := Object{Class: ClassElliptical}
	c.genCommon(rng, &o)
	o.Radius = c.EllRadius * (0.7 + 0.6*rng.Float64())
	o.Axis = c.EllAxisMin + (1-c.EllAxisMin)*rng.Float64()
	o.Color = clamp(0.75+0.15*rng.Norm(), 0, 1)
	return o
}

// genSpiral draws a disk galaxy: blue exponential disk with an m-armed
// logarithmic spiral brightness pattern, a small red bulge, and
// star-forming knots strung along the arms.
func (c GenConfig) genSpiral(rng *tensor.RNG) Object {
	o := Object{Class: ClassSpiral}
	c.genCommon(rng, &o)
	o.Radius = c.SpiralRadius * (0.7 + 0.6*rng.Float64())
	o.Axis = 0.55 + 0.45*rng.Float64() // disks closer to face-on stay classifiable
	o.Color = clamp(0.25+0.12*rng.Norm(), 0, 1)
	o.Bulge = c.SpiralBulge * (0.5 + rng.Float64())
	o.Arms = 2
	if rng.Float64() < 0.3 {
		o.Arms = 3
	}
	o.Pitch = c.SpiralPitch * (0.8 + 0.4*rng.Float64())
	// Knots trace the arms: place each at a radius drawn from the disk
	// profile, at the azimuth where its arm's spiral phase peaks.
	for arm := 0; arm < o.Arms; arm++ {
		n := 1 + rng.Poisson(c.SpiralKnots)
		for i := 0; i < n; i++ {
			r := o.Radius * (0.4 + 1.4*rng.Float64())
			phase := math.Log(r/(0.25*o.Radius)) / o.Pitch
			phi := phase + float64(arm)*2*math.Pi/float64(o.Arms) + 0.1*rng.Norm()
			o.Points = append(o.Points, PointSource{
				X:     o.Cx + r*math.Cos(phi),
				Y:     o.Cy + r*math.Sin(phi),
				Flux:  0.15 * o.Flux * (0.4 + rng.Exp(1)),
				Color: clamp(0.15+0.1*rng.Norm(), 0, 1), // knots are young and blue
			})
		}
	}
	return o
}

// genCluster draws a star cluster: resolved member stars with a King-like
// concentration and almost no smooth light.
func (c GenConfig) genCluster(rng *tensor.RNG) Object {
	o := Object{Class: ClassCluster}
	c.genCommon(rng, &o)
	o.Radius = c.ClusterRadius * (0.6 + 0.8*rng.Float64())
	o.Axis = 1
	o.Color = clamp(0.5+0.25*rng.Norm(), 0, 1)
	o.Flux *= 0.12 // unresolved halo is faint; members carry the light
	n := 3 + rng.Poisson(c.ClusterStars)
	for i := 0; i < n; i++ {
		// Central concentration: radius ∝ |Norm| gives a dense core with
		// a sparse envelope.
		r := o.Radius * 0.5 * math.Abs(rng.Norm())
		phi := (2*rng.Float64() - 1) * math.Pi
		o.Points = append(o.Points, PointSource{
			X:     o.Cx + r*math.Cos(phi),
			Y:     o.Cy + r*math.Sin(phi),
			Flux:  0.3 * (0.3 + rng.Exp(1.2)),
			Color: clamp(0.5+0.3*rng.Norm(), 0, 1), // mixed stellar population
		})
	}
	return o
}

// Generate draws one preselected object of the requested class, redrawing
// until the detectability cut passes.
func (c GenConfig) Generate(rng *tensor.RNG, class int) Object {
	for {
		var o Object
		switch class {
		case ClassElliptical:
			o = c.genElliptical(rng)
		case ClassSpiral:
			o = c.genSpiral(rng)
		case ClassCluster:
			o = c.genCluster(rng)
		default:
			panic("astro: unknown class")
		}
		if o.TotalFlux() >= c.PreselMinFlux {
			return o
		}
	}
}

// GenerateObjects draws n preselected objects with balanced classes.
func (c GenConfig) GenerateObjects(n int, rng *tensor.RNG) ([]Object, []int) {
	objects := make([]Object, n)
	labels := make([]int, n)
	for i := range objects {
		class := rng.Intn(NumClasses)
		objects[i] = c.Generate(rng, class)
		labels[i] = class
	}
	return objects, labels
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

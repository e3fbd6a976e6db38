package astro

import (
	"math"

	"deep15pf/internal/hep"
	"deep15pf/internal/tensor"
)

// Channels is the image channel count: the g, r and i survey bands.
const Channels = 3

// Renderer rasterises objects to 3-band square cutouts, the survey-image
// analogue of hep.Renderer: smooth light profiles are integrated at pixel
// centers, point sources are convolved with a Gaussian PSF, sky noise is
// added per band, and intensities are log-compressed to tame the dynamic
// range — the standard asinh/log stretch of survey imaging.
type Renderer struct {
	Size  int     // square cutout size in pixels
	PSF   float64 // point-spread sigma in pixels
	Noise float64 // sky noise level per pixel per band (pre-log)
}

// NewRenderer constructs a renderer for Size×Size cutouts. The PSF scales
// with the cutout so morphology is resolution-independent: cluster members
// stay marginally resolved, which is exactly what makes the cluster class
// texture-like rather than blob-like.
func NewRenderer(size int) *Renderer {
	return &Renderer{Size: size, PSF: math.Max(0.9, 0.05*float64(size)), Noise: 0.02}
}

// SampleFloats returns the per-image float count.
func (r *Renderer) SampleFloats() int { return Channels * r.Size * r.Size }

// bandWeights maps a component color (0 = blue .. 1 = red) to g/r/i
// multipliers. Blue light concentrates in g, red in i; r is the anchor.
func bandWeights(color float64) (g, rr, i float64) {
	return 1.25 - 0.85*color, 1.0, 0.5 + 0.85*color
}

// Render rasterises one object into dst (length SampleFloats, CHW layout).
func (r *Renderer) Render(o *Object, rng *tensor.RNG, dst []float32) {
	if len(dst) != r.SampleFloats() {
		panic("astro: Render destination has wrong size")
	}
	for i := range dst {
		dst[i] = 0
	}
	s := r.Size
	g := dst[0 : s*s]
	rb := dst[s*s : 2*s*s]
	ib := dst[2*s*s : 3*s*s]

	// Smooth light, evaluated at every pixel center (cutouts are small).
	sinT, cosT := math.Sin(o.Theta), math.Cos(o.Theta)
	diskG, diskR, diskI := bandWeights(o.Color)
	bulgeG, bulgeR, bulgeI := bandWeights(0.8) // bulges are old and red
	r0 := 0.25 * o.Radius                      // arm phase reference, shared with knot placement
	for py := 0; py < s; py++ {
		y := (float64(py) + 0.5) / float64(s)
		dy := y - o.Cy
		for px := 0; px < s; px++ {
			x := (float64(px) + 0.5) / float64(s)
			dx := x - o.Cx
			// Elliptical radius in the rotated frame for the falloff.
			u := cosT*dx + sinT*dy
			v := (-sinT*dx + cosT*dy) / o.Axis
			rell := math.Sqrt(u*u + v*v)
			var disk, bulge float64
			switch o.Class {
			case ClassElliptical:
				disk = o.Flux * math.Exp(-1.68*rell/o.Radius)
			case ClassSpiral:
				disk = o.Flux * math.Exp(-rell/o.Radius)
				// Logarithmic-spiral arm modulation in sky polar
				// coordinates — the same geometry the knots are strung on.
				rad := math.Sqrt(dx*dx + dy*dy)
				if rad > 0.05*o.Radius {
					phase := float64(o.Arms) * (math.Atan2(dy, dx) - math.Log(rad/r0)/o.Pitch)
					disk *= 1 + 0.75*math.Cos(phase)
				}
				bulge = o.Flux * o.Bulge * math.Exp(-rad/(0.25*o.Radius))
			case ClassCluster:
				disk = o.Flux * math.Exp(-rell/o.Radius)
			}
			if disk+bulge < 1e-5 {
				continue
			}
			idx := py*s + px
			g[idx] += float32(disk*diskG + bulge*bulgeG)
			rb[idx] += float32(disk*diskR + bulge*bulgeR)
			ib[idx] += float32(disk*diskI + bulge*bulgeI)
		}
	}

	// Point sources through the Gaussian PSF.
	reach := int(math.Ceil(3 * r.PSF))
	inv2s2 := 1 / (2 * r.PSF * r.PSF)
	for _, p := range o.Points {
		cx := p.X * float64(s)
		cy := p.Y * float64(s)
		px0, py0 := int(cx), int(cy)
		pg, pr, pi := bandWeights(p.Color)
		for dyi := -reach; dyi <= reach; dyi++ {
			py := py0 + dyi
			if py < 0 || py >= s {
				continue
			}
			for dxi := -reach; dxi <= reach; dxi++ {
				px := px0 + dxi
				if px < 0 || px >= s {
					continue
				}
				ddx := float64(px) + 0.5 - cx
				ddy := float64(py) + 0.5 - cy
				gauss := math.Exp(-(ddx*ddx + ddy*ddy) * inv2s2)
				if gauss < 1e-4 {
					continue
				}
				f := p.Flux * gauss
				idx := py*s + px
				g[idx] += float32(f * pg)
				rb[idx] += float32(f * pr)
				ib[idx] += float32(f * pi)
			}
		}
	}

	// Sky noise, then the log stretch.
	for i := range g {
		if r.Noise > 0 {
			g[i] += float32(math.Abs(rng.Norm()) * r.Noise)
			rb[i] += float32(math.Abs(rng.Norm()) * r.Noise)
			ib[i] += float32(math.Abs(rng.Norm()) * r.Noise)
		}
		g[i] = logCompress(g[i])
		rb[i] = logCompress(rb[i])
		ib[i] = logCompress(ib[i])
	}
}

func logCompress(v float32) float32 {
	return float32(math.Log1p(float64(v)) * 0.5)
}

// GenerateDataset draws n preselected objects, renders them, and returns
// the packaged dataset: labels are the objects' classes, and the images
// train on the one image classifier (hep.TrainingProblem).
func GenerateDataset(cfg GenConfig, r *Renderer, n int, rng *tensor.RNG) *hep.Dataset {
	objects, labels := cfg.GenerateObjects(n, rng)
	images := tensor.New(n, Channels, r.Size, r.Size)
	per := r.SampleFloats()
	for i := range objects {
		r.Render(&objects[i], rng, images.Data[i*per:(i+1)*per])
	}
	return &hep.Dataset{Images: images, Labels: labels}
}

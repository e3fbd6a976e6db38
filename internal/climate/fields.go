package climate

import (
	"math"

	"deep15pf/internal/tensor"
)

// Synthetic CAM5 stand-in. A climate snapshot is a 16-channel field on a
// latitude×longitude grid; the generator builds smooth large-scale
// background circulation and injects the three extreme-weather patterns the
// paper detects, each with its published multi-variate signature:
//
//   - tropical cyclones: compact warm-core vortices — deep sea-level
//     pressure minimum, strong tangential winds peaking outside the eye,
//     high integrated water vapor (TMQ), upper-troposphere warm anomaly;
//   - extratropical cyclones: larger, weaker, asymmetric vortices at higher
//     latitude;
//   - atmospheric rivers: long narrow filaments of very high TMQ with
//     along-axis moisture transport (Lavers et al., the paper's [11]).
//
// Channel variance is normalised to O(1) so the network needs no input
// whitening — mirroring how climate data differs statistically from the
// natural-image corpora pre-trained models assume (§I-B).

// Field channel indices. 16 channels per Table I.
const (
	ChTMQ       = iota // integrated water vapor
	ChU850             // zonal wind, 850 hPa
	ChV850             // meridional wind, 850 hPa
	ChUBOT             // zonal wind, surface
	ChVBOT             // meridional wind, surface
	ChPSL              // sea-level pressure anomaly
	ChT200             // temperature, 200 hPa
	ChT500             // temperature, 500 hPa
	ChPRECT            // precipitation rate
	ChTS               // surface temperature
	ChTREF             // reference-height temperature
	_                  // geopotential height, 100 hPa
	_                  // geopotential height, 200 hPa
	_                  // geopotential height, surface
	ChQREF             // reference-height humidity
	ChPS               // surface pressure anomaly
	NumChannels        // 16
)

// GenConfig parameterises the climate-field generator for a Size×Size grid.
type GenConfig struct {
	Size        int
	MeanTC      float64 // Poisson mean of tropical cyclones per image
	MeanETC     float64 // Poisson mean of extratropical cyclones
	ARProb      float64 // probability of one atmospheric river
	NoiseStd    float64 // white-noise floor on every channel
	BgModes     int     // background low-frequency modes per channel group
	MinSepFrac  float64 // minimum separation between event centers (fraction of Size)
	TCRadiusLo  float64 // TC core radius bounds (fraction of Size)
	TCRadiusHi  float64
	ETCRadiusLo float64
	ETCRadiusHi float64
}

// DefaultGenConfig returns the tuned generator for a given grid size.
func DefaultGenConfig(size int) GenConfig {
	return GenConfig{
		Size:        size,
		MeanTC:      1.2,
		MeanETC:     0.7,
		ARProb:      0.5,
		NoiseStd:    0.15,
		BgModes:     3,
		MinSepFrac:  0.18,
		TCRadiusLo:  0.035,
		TCRadiusHi:  0.06,
		ETCRadiusLo: 0.08,
		ETCRadiusHi: 0.13,
	}
}

// Sample is one labelled climate snapshot.
type Sample struct {
	Field *tensor.Tensor // [16, Size, Size]
	Boxes []Box
}

// Generate draws one snapshot.
func (c GenConfig) Generate(rng *tensor.RNG) *Sample {
	field := tensor.New(NumChannels, c.Size, c.Size)
	return &Sample{Field: field, Boxes: c.draw(field, rng, false)}
}

// draw makes one snapshot in the zeroed field and returns its boxes. A dry
// draw takes the same draws but does not render the background: its
// per-pixel loop, nearly all of a snapshot's cost, is one SkipNorms. The
// storms still render, into whatever field is given; they are a small
// share of the cost and their boxes come out of the same loops.
func (c GenConfig) draw(field *tensor.Tensor, rng *tensor.RNG, dry bool) []Box {
	s := c.Size
	c.background(field, rng, dry)

	var boxes []Box
	var centers [][2]float64
	place := func(marginFrac float64) (float64, float64, bool) {
		minSep := c.MinSepFrac * float64(s)
		for try := 0; try < 30; try++ {
			x := (marginFrac + (1-2*marginFrac)*rng.Float64()) * float64(s)
			y := (marginFrac + (1-2*marginFrac)*rng.Float64()) * float64(s)
			ok := true
			for _, ct := range centers {
				if math.Hypot(x-ct[0], y-ct[1]) < minSep {
					ok = false
					break
				}
			}
			if ok {
				centers = append(centers, [2]float64{x, y})
				return x, y, true
			}
		}
		return 0, 0, false
	}

	nTC := rng.Poisson(c.MeanTC)
	for i := 0; i < nTC; i++ {
		if x, y, ok := place(0.08); ok {
			boxes = append(boxes, c.addCyclone(field, rng, x, y, true))
		}
	}
	nETC := rng.Poisson(c.MeanETC)
	for i := 0; i < nETC; i++ {
		if x, y, ok := place(0.12); ok {
			boxes = append(boxes, c.addCyclone(field, rng, x, y, false))
		}
	}
	if rng.Float64() < c.ARProb {
		if x, y, ok := place(0.15); ok {
			boxes = append(boxes, c.addRiver(field, rng, x, y))
		}
	}
	return boxes
}

// background synthesises smooth large-scale structure: a meridional
// temperature gradient, zonal jets, and a few random long-wavelength modes,
// plus white noise. A dry call draws the modes and skips the noise.
func (c GenConfig) background(field *tensor.Tensor, rng *tensor.RNG, dry bool) {
	s := c.Size
	fs := float64(s)
	type mode struct{ kx, ky, phase, amp float64 }
	chModes := make([][]mode, NumChannels)
	for ch := 0; ch < NumChannels; ch++ {
		ms := make([]mode, c.BgModes)
		for m := range ms {
			ms[m] = mode{
				kx:    (1 + rng.Float64()*2) * 2 * math.Pi / fs,
				ky:    (1 + rng.Float64()*2) * 2 * math.Pi / fs,
				phase: rng.Float64() * 2 * math.Pi,
				amp:   0.25 + 0.25*rng.Float64(),
			}
		}
		chModes[ch] = ms
	}
	if dry {
		rng.SkipNorms(NumChannels * s * s)
		return
	}
	for ch := 0; ch < NumChannels; ch++ {
		plane := field.Data[ch*s*s : (ch+1)*s*s]
		for y := 0; y < s; y++ {
			lat := float64(y)/fs - 0.5           // −0.5 south … +0.5 north
			jet := 0.8 * math.Sin(lat*4*math.Pi) // zonal jets
			for x := 0; x < s; x++ {
				v := 0.0
				for _, m := range chModes[ch] {
					v += m.amp * tensor.Sin(m.kx*float64(x)+m.ky*float64(y)+m.phase)
				}
				switch ch {
				case ChTS, ChTREF, ChT500, ChT200:
					v -= 1.5 * math.Abs(lat) * 2 // warm equator, cold poles
				case ChU850, ChUBOT:
					v += jet
				case ChTMQ, ChQREF:
					v += 0.8 * (0.5 - math.Abs(lat)) * 2 // moist tropics
				}
				plane[y*s+x] = float32(v + c.NoiseStd*rng.Norm())
			}
		}
	}
}

// addCyclone injects a tropical (tc=true) or extratropical cyclone centred
// at (cx, cy) and returns its ground-truth box.
func (c GenConfig) addCyclone(field *tensor.Tensor, rng *tensor.RNG, cx, cy float64, tc bool) Box {
	s := c.Size
	fs := float64(s)
	var r, depth, wind, moist, warm float64
	var class EventClass
	if tc {
		r = (c.TCRadiusLo + (c.TCRadiusHi-c.TCRadiusLo)*rng.Float64()) * fs
		depth = 2.5 + rng.Float64()
		wind = 2.2 + 0.8*rng.Float64()
		moist = 2.0 + 0.8*rng.Float64()
		warm = 1.2
		class = TropicalCyclone
	} else {
		r = (c.ETCRadiusLo + (c.ETCRadiusHi-c.ETCRadiusLo)*rng.Float64()) * fs
		depth = 1.4 + 0.6*rng.Float64()
		wind = 1.0 + 0.5*rng.Float64()
		moist = 0.8 + 0.5*rng.Float64()
		warm = 0
		class = ExtratropicalCyclone
	}
	// ETCs are asymmetric: elongate along a random axis.
	elong := 1.0
	theta := 0.0
	if !tc {
		elong = 1.4 + 0.8*rng.Float64()
		theta = rng.Float64() * math.Pi
	}
	cosT, sinT := math.Cos(theta), math.Sin(theta)
	reach := int(3.5 * r * elong)
	x0, y0 := int(cx), int(cy)
	get := func(ch int) []float32 { return field.Data[ch*s*s : (ch+1)*s*s] }
	tmq, psl, prect := get(ChTMQ), get(ChPSL), get(ChPRECT)
	u850, v850, ubot, vbot := get(ChU850), get(ChV850), get(ChUBOT), get(ChVBOT)
	t200, ps := get(ChT200), get(ChPS)
	for y := y0 - reach; y <= y0+reach; y++ {
		if y < 0 || y >= s {
			continue
		}
		for x := x0 - reach; x <= x0+reach; x++ {
			if x < 0 || x >= s {
				continue
			}
			dx := float64(x) - cx
			dy := float64(y) - cy
			// Rotate/elongate for asymmetric storms.
			ex := (dx*cosT + dy*sinT) / elong
			ey := -dx*sinT + dy*cosT
			d2 := (ex*ex + ey*ey) / (r * r)
			g := math.Exp(-0.5 * d2)
			d := math.Sqrt(dx*dx+dy*dy) + 1e-9
			// Tangential wind profile peaks at the radius of maximum wind.
			wProf := (d / r) * math.Exp(0.5*(1-d*d/(r*r))) * wind * g
			idx := y*s + x
			tmq[idx] += float32(moist * g)
			psl[idx] -= float32(depth * g)
			ps[idx] -= float32(0.8 * depth * g)
			prect[idx] += float32(0.7 * moist * g)
			t200[idx] += float32(warm * g)
			u850[idx] += float32(-wProf * dy / d)
			v850[idx] += float32(wProf * dx / d)
			ubot[idx] += float32(-0.7 * wProf * dy / d)
			vbot[idx] += float32(0.7 * wProf * dx / d)
		}
	}
	half := 1.8 * r * elong
	return Box{X: cx - half, Y: cy - half, W: 2 * half, H: 2 * half, Class: class}
}

// addRiver injects an atmospheric river: a narrow high-TMQ filament with
// along-axis transport, and returns its bounding box.
func (c GenConfig) addRiver(field *tensor.Tensor, rng *tensor.RNG, sx, sy float64) Box {
	s := c.Size
	fs := float64(s)
	length := (0.35 + 0.3*rng.Float64()) * fs
	width := (0.03 + 0.03*rng.Float64()) * fs
	angle := math.Pi/4 + (rng.Float64()-0.5)*math.Pi/3 // mostly diagonal
	dirX, dirY := math.Cos(angle), math.Sin(angle)
	amp := 1.8 + 0.8*rng.Float64()
	get := func(ch int) []float32 { return field.Data[ch*s*s : (ch+1)*s*s] }
	tmq, qref, prect := get(ChTMQ), get(ChQREF), get(ChPRECT)
	u850, v850 := get(ChU850), get(ChV850)

	minX, minY := sx, sy
	maxX, maxY := sx, sy
	steps := int(length)
	for i := 0; i <= steps; i++ {
		t := float64(i)
		// Gentle meander.
		mx := sx + dirX*t + 6*math.Sin(t*0.05)
		my := sy + dirY*t
		if mx < 0 || mx >= fs || my < 0 || my >= fs {
			break
		}
		minX, maxX = minf(minX, mx), maxf(maxX, mx)
		minY, maxY = minf(minY, my), maxf(maxY, my)
		reach := int(2.5 * width)
		x0, y0 := int(mx), int(my)
		for y := y0 - reach; y <= y0+reach; y++ {
			if y < 0 || y >= s {
				continue
			}
			for x := x0 - reach; x <= x0+reach; x++ {
				if x < 0 || x >= s {
					continue
				}
				dx := float64(x) - mx
				dy := float64(y) - my
				// Distance perpendicular to the axis.
				perp := math.Abs(-dx*dirY + dy*dirX)
				g := math.Exp(-0.5*(perp/width)*(perp/width)) / float64(steps) * length * 0.2
				idx := y*s + x
				tmq[idx] += float32(amp * g)
				qref[idx] += float32(0.8 * amp * g)
				prect[idx] += float32(0.4 * amp * g)
				u850[idx] += float32(amp * g * dirX)
				v850[idx] += float32(amp * g * dirY)
			}
		}
	}
	pad := 1.5 * width
	return Box{
		X: minX - pad, Y: minY - pad,
		W: (maxX - minX) + 2*pad, H: (maxY - minY) + 2*pad,
		Class: AtmosphericRiver,
	}
}

// Dataset is an in-memory labelled snapshot set.
type Dataset struct {
	Samples []*Sample
	Size    int
}

// GenerateDataset draws n snapshots. A snapshot's draw count varies with
// its storms, so a dry pass first walks rng through all n in order and
// records where each starts; then the snapshots render on all workers,
// each from its recorded state. Every bit, and where rng is left, is what
// n Generate calls in a row give.
func GenerateDataset(cfg GenConfig, n int, rng *tensor.RNG) *Dataset {
	starts := make([]tensor.RNG, n)
	scratch := tensor.New(NumChannels, cfg.Size, cfg.Size)
	for i := range starts {
		starts[i] = *rng
		cfg.draw(scratch, rng, true)
	}
	ds := &Dataset{Size: cfg.Size, Samples: make([]*Sample, n)}
	tensor.ParallelFor(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ds.Samples[i] = cfg.Generate(&starts[i])
		}
	})
	return ds
}

// Batch gathers the indexed samples into one [len(idx),16,S,S] tensor plus
// per-sample box lists.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, [][]Box) {
	x := tensor.New(len(idx), NumChannels, d.Size, d.Size)
	boxes := make([][]Box, len(idx))
	d.BatchInto(x, boxes, idx)
	return x, boxes
}

// BatchInto is Batch writing into caller-owned staging (x sized for
// len(idx) samples, boxes of length len(idx)) — the allocation-free form
// planned training replicas reuse every iteration. Box lists are shared
// with the dataset, not copied.
func (d *Dataset) BatchInto(x *tensor.Tensor, boxes [][]Box, idx []int) {
	s := d.Size
	per := NumChannels * s * s
	if x.Len() != len(idx)*per || len(boxes) != len(idx) {
		panic("climate: BatchInto staging size mismatch")
	}
	for bi, i := range idx {
		copy(x.Data[bi*per:(bi+1)*per], d.Samples[i].Field.Data)
		boxes[bi] = d.Samples[i].Boxes
	}
}

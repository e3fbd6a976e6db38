package hep

import (
	"math"

	"deep15pf/internal/data"
	"deep15pf/internal/tensor"
)

// Renderer rasterises events to the paper's 3-channel detector images: the
// data "from the surface of the cylindrical detector ... as a sparse 2D
// image" with the electromagnetic calorimeter, hadronic calorimeter and
// inner-detector track count as channels (§I-A). The image spans the full
// detector: η ∈ [−4.5, 4.5] on one axis and φ ∈ [−π, π) (with wraparound)
// on the other.
type Renderer struct {
	Size  int     // square image size in pixels
	Sigma float64 // jet energy spread in η–φ units
	Noise float64 // calorimeter noise level per pixel (pre-log)
}

// Channels is the image channel count (ECAL, HCAL, tracks).
const Channels = 3

// NewRenderer constructs a renderer for Size×Size images.
func NewRenderer(size int) *Renderer {
	return &Renderer{Size: size, Sigma: 0.35, Noise: 0.4}
}

// SampleFloats returns the per-image float count.
func (r *Renderer) SampleFloats() int { return Channels * r.Size * r.Size }

// Render rasterises one event into dst (length SampleFloats, CHW layout).
// Deposits are Gaussian blobs around each jet axis; the φ axis wraps; the
// track channel is confined to the inner-detector acceptance. Intensities
// are log-compressed to tame the steeply falling energy spectrum.
func (r *Renderer) Render(e *Event, rng *tensor.RNG, dst []float32) {
	if len(dst) != r.SampleFloats() {
		panic("hep: Render destination has wrong size")
	}
	for i := range dst {
		dst[i] = 0
	}
	s := r.Size
	etaBin := 2 * etaMax / float64(s)
	phiBin := 2 * math.Pi / float64(s)
	sigEta := r.Sigma / etaBin
	sigPhi := r.Sigma / phiBin
	reach := int(math.Ceil(3 * math.Max(sigEta, sigPhi)))
	ecal := dst[0 : s*s]
	hcal := dst[s*s : 2*s*s]
	trk := dst[2*s*s : 3*s*s]
	for _, j := range e.Jets {
		cx := (j.Eta + etaMax) / etaBin
		cy := (j.Phi + math.Pi) / phiBin
		em := j.Pt * j.EMFrac
		had := j.Pt * (1 - j.EMFrac)
		x0 := int(cx)
		y0 := int(cy)
		for dx := -reach; dx <= reach; dx++ {
			x := x0 + dx
			if x < 0 || x >= s {
				continue // η has hard edges
			}
			for dy := -reach; dy <= reach; dy++ {
				y := ((y0+dy)%s + s) % s // φ wraps around the cylinder
				dex := (float64(x) + 0.5 - cx) / sigEta
				dey := (float64(y0+dy) + 0.5 - cy) / sigPhi
				g := math.Exp(-0.5 * (dex*dex + dey*dey))
				if g < 1e-4 {
					continue
				}
				idx := x*s + y
				ecal[idx] += float32(em * g)
				hcal[idx] += float32(had * g)
				if math.Abs(j.Eta) < trackEta {
					trk[idx] += float32(float64(j.NTracks) * g)
				}
			}
		}
	}
	// Calorimeter noise then log compression.
	for i := range ecal {
		if r.Noise > 0 {
			ecal[i] += float32(math.Abs(rng.Norm()) * r.Noise)
			hcal[i] += float32(math.Abs(rng.Norm()) * r.Noise)
		}
		ecal[i] = logCompress(ecal[i])
		hcal[i] = logCompress(hcal[i])
		trk[i] = logCompress(trk[i])
	}
}

func logCompress(v float32) float32 {
	return float32(math.Log1p(float64(v)) * 0.5)
}

// Dataset is an in-memory labelled image set — HEP's events, or astro's
// survey cutouts (astro.GenerateDataset), which leave Events nil.
type Dataset struct {
	Images *tensor.Tensor // [N, 3, S, S]
	Labels []int
	Events []Event // kept for baseline-cut evaluation on the same sample
}

// GenerateDataset draws n preselected events, renders them, and returns the
// packaged dataset.
func GenerateDataset(cfg GenConfig, r *Renderer, n int, signalFrac float64, rng *tensor.RNG) *Dataset {
	events, labels := cfg.GenerateEvents(n, signalFrac, rng)
	images := tensor.New(n, Channels, r.Size, r.Size)
	per := r.SampleFloats()
	for i := range events {
		r.Render(&events[i], rng, images.Data[i*per:(i+1)*per])
	}
	return &Dataset{Images: images, Labels: labels, Events: events}
}

// Batch gathers the indexed samples into x ([len(idx),3,S,S]) and labels.
func (d *Dataset) Batch(idx []int) (*tensor.Tensor, []int) {
	s := d.Images.Shape
	per := s[1] * s[2] * s[3]
	x := tensor.New(len(idx), s[1], s[2], s[3])
	labels := make([]int, len(idx))
	for bi, i := range idx {
		copy(x.Data[bi*per:(bi+1)*per], d.Images.Data[i*per:(i+1)*per])
		labels[bi] = d.Labels[i]
	}
	return x, labels
}

// SaveShards persists the dataset's images to numShards shard files under
// dir and returns their paths — the on-disk input layout a shard-backed
// TrainingProblem (and its prefetch pipeline) reads from. Shards store the
// exact float bits, so file-backed training is bitwise-equal to in-memory.
func (d *Dataset) SaveShards(dir string, numShards int) ([]string, error) {
	s := d.Images.Shape
	per := s[1] * s[2] * s[3]
	return data.WriteShards(dir, numShards, s[0], per, 0, d.Images.Data, nil)
}

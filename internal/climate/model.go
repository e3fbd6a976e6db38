package climate

import (
	"fmt"
	"math"

	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

// ModelConfig describes the semi-supervised architecture of §III-B: a
// strided-convolution encoder producing coarse features, three small
// convolutional score heads (confidence, class, box geometry) over the
// feature grid, and a deconvolutional decoder reconstructing the input.
type ModelConfig struct {
	Name        string
	Size        int   // input height = width
	EncChannels []int // encoder conv output channels
	EncStrides  []int // per-conv stride (2 = downsample)
	DecChannels []int // decoder deconv output channels; last must be NumChannels
	WithDecoder bool  // false = supervised-only ablation (no autoencoder)
}

// PaperConfig reproduces Table II's semi-supervised climate architecture:
// 768×768×16 input, 9 convolutions (6 encoder + 3 score heads) and 5
// deconvolutions, ≈302 MiB of parameters, 14 trainable layers (hence the
// paper's 14 parameter servers).
func PaperConfig() ModelConfig {
	return ModelConfig{
		Name:        "climate-paper",
		Size:        768,
		EncChannels: []int{64, 256, 512, 1024, 1440, 1664},
		EncStrides:  []int{2, 2, 2, 2, 2, 1},
		DecChannels: []int{1024, 512, 256, 128, NumChannels},
		WithDecoder: true,
	}
}

// SmallConfig is the laptop-scale variant for real training: identical
// topology at 64×64 with narrow channels (grid 4×4, cell 16 px).
func SmallConfig() ModelConfig {
	return ModelConfig{
		Name:        "climate-small",
		Size:        64,
		EncChannels: []int{12, 16, 24, 32, 32},
		EncStrides:  []int{2, 2, 2, 2, 1},
		DecChannels: []int{24, 16, 12, NumChannels},
		WithDecoder: true,
	}
}

// Net is the assembled semi-supervised network. The encoder is shared by
// the detection heads and the decoder — the mechanism that lets unlabelled
// data improve the supervised task.
type Net struct {
	Cfg                          ModelConfig
	Encoder                      *nn.Network
	ConfHead, ClassHead, BoxHead *nn.Conv2D
	Decoder                      *nn.Network
	GridSize, CellSize           int
	featShape                    []int
}

// BuildNet constructs the network.
func BuildNet(cfg ModelConfig, rng *tensor.RNG) *Net {
	if len(cfg.EncChannels) != len(cfg.EncStrides) {
		panic("climate: encoder channel/stride length mismatch")
	}
	if cfg.DecChannels[len(cfg.DecChannels)-1] != NumChannels {
		panic("climate: decoder must reconstruct the input channels")
	}
	enc := nn.NewNetwork(cfg.Name+"-encoder", NumChannels, cfg.Size, cfg.Size)
	inC := NumChannels
	downs := 0
	for i, outC := range cfg.EncChannels {
		enc.Add(
			nn.NewConv2D(fmt.Sprintf("enc_conv%d", i+1), inC, outC, 3, cfg.EncStrides[i], 1, rng),
			nn.NewReLU(fmt.Sprintf("enc_relu%d", i+1)),
		)
		if cfg.EncStrides[i] == 2 {
			downs++
		}
		inC = outC
	}
	featShape := enc.OutShape()
	grid := featShape[1]
	if featShape[2] != grid {
		panic("climate: non-square feature grid")
	}
	if nDec := len(cfg.DecChannels); cfg.WithDecoder && nDec != downs {
		panic(fmt.Sprintf("climate: %d deconvs cannot invert %d downsamples", nDec, downs))
	}

	n := &Net{
		Cfg:       cfg,
		Encoder:   enc,
		GridSize:  grid,
		CellSize:  cfg.Size / grid,
		featShape: featShape,
		// Score heads per §III-B: "a convolution layer for each score".
		ConfHead:  nn.NewConv2D("head_conf", inC, 1, 3, 1, 1, rng),
		ClassHead: nn.NewConv2D("head_class", inC, int(NumClasses), 3, 1, 1, rng),
		BoxHead:   nn.NewConv2D("head_box", inC, 4, 3, 1, 1, rng),
	}
	if cfg.WithDecoder {
		dec := nn.NewNetwork(cfg.Name+"-decoder", featShape...)
		dInC := inC
		for i, outC := range cfg.DecChannels {
			// Kernel 4, stride 2, pad 1 doubles the spatial size exactly.
			dec.Add(nn.NewDeconv2D(fmt.Sprintf("dec_deconv%d", i+1), dInC, outC, 4, 2, 1, rng))
			if i < len(cfg.DecChannels)-1 {
				dec.Add(nn.NewReLU(fmt.Sprintf("dec_relu%d", i+1)))
			}
			dInC = outC
		}
		out := dec.OutShape()
		if out[0] != NumChannels || out[1] != cfg.Size || out[2] != cfg.Size {
			panic(fmt.Sprintf("climate: decoder output %v does not match input [%d %d %d]", out, NumChannels, cfg.Size, cfg.Size))
		}
		n.Decoder = dec
	}
	return n
}

// Output bundles one forward pass (TrainPlan's or Scorer's; the tensors are
// plan-owned).
type Output struct {
	Feat  *tensor.Tensor // [N, C, G, G] shared encoder features
	Conf  *tensor.Tensor // [N, 1, G, G] confidence logits
	Class *tensor.Tensor // [N, K, G, G] class logits
	BoxP  *tensor.Tensor // [N, 4, G, G] box geometry (tx, ty, log w, log h)
	Recon *tensor.Tensor // [N, 16, S, S] reconstruction (nil without decoder)
}

// Params returns all trainable parameters.
func (n *Net) Params() []*nn.Param {
	ps := n.Encoder.Params()
	ps = append(ps, n.ConfHead.Params()...)
	ps = append(ps, n.ClassHead.Params()...)
	ps = append(ps, n.BoxHead.Params()...)
	if n.Decoder != nil {
		ps = append(ps, n.Decoder.Params()...)
	}
	return ps
}

// TrainableLayers returns every parameterised layer; with the paper config
// this is 14 (9 convs + 5 deconvs), matching the paper's PS count.
func (n *Net) TrainableLayers() []nn.Layer {
	ls := n.Encoder.TrainableLayers()
	ls = append(ls, n.ConfHead, n.ClassHead, n.BoxHead)
	if n.Decoder != nil {
		ls = append(ls, n.Decoder.TrainableLayers()...)
	}
	return ls
}

// ZeroGrad clears all gradient accumulators.
func (n *Net) ZeroGrad() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// NumParams returns the total parameter count.
func (n *Net) NumParams() int {
	t := 0
	for _, p := range n.Params() {
		t += p.NumEl()
	}
	return t
}

// ParamBytes returns the model size (Table II's 302.1 MiB for PaperConfig).
func (n *Net) ParamBytes() int64 {
	var t int64
	for _, p := range n.Params() {
		t += p.Bytes()
	}
	return t
}

// FLOPsPerSample totals encoder, heads and decoder counts.
func (n *Net) FLOPsPerSample() nn.FlopCount {
	total := n.Encoder.FLOPsPerSample()
	for _, h := range []*nn.Conv2D{n.ConfHead, n.ClassHead, n.BoxHead} {
		total = total.Add(h.FLOPs(n.featShape))
	}
	if n.Decoder != nil {
		total = total.Add(n.Decoder.FLOPsPerSample())
	}
	return total
}

// FLOPBreakdown returns per-layer per-sample counts across all components.
func (n *Net) FLOPBreakdown() []nn.LayerFlop {
	rows := n.Encoder.FLOPBreakdown()
	for _, h := range []*nn.Conv2D{n.ConfHead, n.ClassHead, n.BoxHead} {
		var bytes int64
		for _, p := range h.Params() {
			bytes += p.Bytes()
		}
		rows = append(rows, nn.LayerFlop{Name: h.Name(), Count: h.FLOPs(n.featShape), Bytes: bytes})
	}
	if n.Decoder != nil {
		rows = append(rows, n.Decoder.FLOPBreakdown()...)
	}
	return rows
}

// targetScratch holds the reusable grid-target buffers encodeTargetInto
// fills; a zero value grows on first use.
type targetScratch struct {
	hasBox         []bool
	class          []int
	tx, ty, tw, th []float32
	area           []float64
}

// resize grows the scratch to cells entries and resets it.
func (t *targetScratch) resize(cells int) {
	if cap(t.hasBox) < cells {
		t.hasBox = make([]bool, cells)
		t.class = make([]int, cells)
		t.tx = make([]float32, cells)
		t.ty = make([]float32, cells)
		t.tw = make([]float32, cells)
		t.th = make([]float32, cells)
		t.area = make([]float64, cells)
	}
	t.hasBox = t.hasBox[:cells]
	t.class = t.class[:cells]
	t.tx, t.ty = t.tx[:cells], t.ty[:cells]
	t.tw, t.th = t.tw[:cells], t.th[:cells]
	t.area = t.area[:cells]
	for i := range t.hasBox {
		t.hasBox[i] = false
		t.class[i] = 0
		t.tx[i], t.ty[i], t.tw[i], t.th[i] = 0, 0, 0, 0
		t.area[i] = 0
	}
}

// EncodeTarget maps ground-truth boxes onto the detection grid. Returned
// slices are G×G: hasBox marks cells owning a box (by box center); class,
// tx, ty, tw, th hold that box's targets. When two boxes share a cell the
// larger-area box wins.
func (n *Net) EncodeTarget(boxes []Box) (hasBox []bool, class []int, tx, ty, tw, th []float32) {
	var t targetScratch
	n.encodeTargetInto(boxes, &t)
	return t.hasBox, t.class, t.tx, t.ty, t.tw, t.th
}

// encodeTargetInto is EncodeTarget writing into reusable scratch — the
// allocation-free form the training-plan loss runs per sample.
func (n *Net) encodeTargetInto(boxes []Box, t *targetScratch) {
	g := n.GridSize
	cell := float64(n.CellSize)
	t.resize(g * g)
	hasBox, class := t.hasBox, t.class
	tx, ty, tw, th := t.tx, t.ty, t.tw, t.th
	area := t.area
	for _, b := range boxes {
		if b.W <= 0 || b.H <= 0 {
			continue
		}
		cx := b.X + b.W/2
		cy := b.Y + b.H/2
		gx := clampInt(int(cx/cell), 0, g-1)
		gy := clampInt(int(cy/cell), 0, g-1)
		i := gy*g + gx
		a := b.W * b.H
		if hasBox[i] && area[i] >= a {
			continue
		}
		hasBox[i] = true
		area[i] = a
		class[i] = int(b.Class)
		tx[i] = float32((b.X - float64(gx)*cell) / cell)
		ty[i] = float32((b.Y - float64(gy)*cell) / cell)
		tw[i] = float32(math.Log(b.W / cell))
		th[i] = float32(math.Log(b.H / cell))
	}
}

// Decode converts head outputs for one batch sample into detections above
// the confidence threshold (the paper keeps boxes with confidence > 0.8 at
// inference).
func (n *Net) Decode(out Output, sample int, confThresh float64) []Detection {
	g := n.GridSize
	cell := float64(n.CellSize)
	k := int(NumClasses)
	confBase := sample * g * g
	classBase := sample * k * g * g
	boxBase := sample * 4 * g * g
	var dets []Detection
	for gy := 0; gy < g; gy++ {
		for gx := 0; gx < g; gx++ {
			ci := gy*g + gx
			conf := float64(nn.Sigmoid(out.Conf.Data[confBase+ci]))
			if conf < confThresh {
				continue
			}
			bestClass, bestLogit := 0, float32(math.Inf(-1))
			for c := 0; c < k; c++ {
				if l := out.Class.Data[classBase+c*g*g+ci]; l > bestLogit {
					bestLogit = l
					bestClass = c
				}
			}
			tx := float64(out.BoxP.Data[boxBase+0*g*g+ci])
			ty := float64(out.BoxP.Data[boxBase+1*g*g+ci])
			tw := float64(out.BoxP.Data[boxBase+2*g*g+ci])
			th := float64(out.BoxP.Data[boxBase+3*g*g+ci])
			w := cell * math.Exp(clampF(tw, -4, 4))
			h := cell * math.Exp(clampF(th, -4, 4))
			dets = append(dets, Detection{
				Confidence: conf,
				Box: Box{
					X:     float64(gx)*cell + tx*cell,
					Y:     float64(gy)*cell + ty*cell,
					W:     w,
					H:     h,
					Class: EventClass(bestClass),
				},
			})
		}
	}
	return dets
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

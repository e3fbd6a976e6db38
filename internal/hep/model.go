package hep

import (
	"fmt"

	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

// ModelConfig selects the network scale. PaperConfig reproduces Table II's
// supervised HEP architecture exactly; SmallConfig is the same topology
// shrunk for single-core training in tests and the CLIs. astro's nets are
// this classifier too, under their own class count and head.
type ModelConfig struct {
	Name      string
	ImageSize int
	Filters   int
	ConvUnits int // conv(+pool) units; the last uses global average pooling
	Classes   int
	// Head names the classifier layer ("" means "fc"). The backbone's
	// layer names are fixed, so a donor checkpoint's backbone maps into
	// any net of its geometry (nn.MapWeights); a head under another name
	// stays fresh.
	Head string
}

// PaperConfig is the §III-A architecture: 5 convolution(3×3, 128 filters,
// stride 1)+pooling units — max pooling 2×2/2 for the first four, global
// average pooling after the fifth — and one fully connected layer projecting
// 128 → 2 class logits. 224×224×3 input, ~2.3 MiB of parameters.
func PaperConfig() ModelConfig {
	return ModelConfig{Name: "hep-paper", ImageSize: 224, Filters: 128, ConvUnits: 5, Classes: 2}
}

// SmallConfig is the laptop-scale variant used for real training runs: the
// identical layer pattern at 32×32 with 16 filters.
func SmallConfig() ModelConfig {
	return ModelConfig{Name: "hep-small", ImageSize: 32, Filters: 16, ConvUnits: 4, Classes: 2}
}

// BuildNet constructs the classifier. Architecture per §III-A: every conv is
// 3×3 stride 1 pad 1 with ReLU; pools are 2×2 stride 2 max pools except the
// final unit, which global-average-pools into the fully connected layer.
func BuildNet(cfg ModelConfig, rng *tensor.RNG) *nn.Network {
	if cfg.ConvUnits < 2 {
		panic("hep: need at least 2 conv units")
	}
	minSize := 1 << (cfg.ConvUnits - 1)
	if cfg.ImageSize < minSize {
		panic(fmt.Sprintf("hep: image size %d too small for %d conv units", cfg.ImageSize, cfg.ConvUnits))
	}
	net := nn.NewNetwork(cfg.Name, Channels, cfg.ImageSize, cfg.ImageSize)
	inC := Channels
	for u := 1; u <= cfg.ConvUnits; u++ {
		net.Add(
			nn.NewConv2D(fmt.Sprintf("conv%d", u), inC, cfg.Filters, 3, 1, 1, rng),
			nn.NewReLU(fmt.Sprintf("relu%d", u)),
		)
		if u < cfg.ConvUnits {
			net.Add(nn.NewMaxPool2D(fmt.Sprintf("pool%d", u), 2, 2))
		} else {
			net.Add(nn.NewGlobalAvgPool("global_pool"))
		}
		inC = cfg.Filters
	}
	head := cfg.Head
	if head == "" {
		head = "fc"
	}
	net.Add(nn.NewDense(head, cfg.Filters, cfg.Classes, rng))
	return net
}

// BackboneLayerNames returns the conv layer names of the first units conv
// blocks — the freeze list a fine-tune run hands to nn.Network.Freeze.
// Only the parameterised conv layers are named; activations and pools own
// no parameters, so freezing them is implicit in the backward cut.
func BackboneLayerNames(units int) []string {
	names := make([]string, units)
	for u := 1; u <= units; u++ {
		names[u-1] = fmt.Sprintf("conv%d", u)
	}
	return names
}

// SignalScore returns P(signal) per sample from class logits.
func SignalScore(logits *tensor.Tensor) []float64 {
	probs := nn.SoftmaxProbs(logits)
	n := probs.Shape[0]
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = float64(probs.At(i, 1))
	}
	return out
}

// Predict returns the argmax class per sample from logits.
func Predict(logits *tensor.Tensor) []int {
	n, c := logits.Shape[0], logits.Shape[1]
	out := make([]int, n)
	for i := 0; i < n; i++ {
		best := 0
		for j := 1; j < c; j++ {
			if logits.At(i, j) > logits.At(i, best) {
				best = j
			}
		}
		out[i] = best
	}
	return out
}

package astro

import (
	"fmt"

	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

// ModelConfig selects the network scale. The topology is deliberately the
// HEP classifier's (hep.BuildNet) with the same backbone layer names —
// conv1..convN, pools, global_pool — so a HEP checkpoint's early layers map
// into an astro model by name and shape (nn.MapWeights); only the head is
// new, and named astro_fc so no donor blob can collide with it.
type ModelConfig struct {
	Name      string
	ImageSize int
	Filters   int
	ConvUnits int // conv(+pool) units; the last uses global average pooling
	Classes   int
}

// PaperConfig mirrors the §III-A HEP scale for the astronomy workload —
// what a PHANGS/DES-sized run would fine-tune.
func PaperConfig() ModelConfig {
	return ModelConfig{Name: "astro-paper", ImageSize: 224, Filters: 128, ConvUnits: 5, Classes: NumClasses}
}

// SmallConfig is the laptop-scale variant, geometry-compatible with
// hep.SmallConfig so its checkpoints donate a full backbone.
func SmallConfig() ModelConfig {
	return ModelConfig{Name: "astro-small", ImageSize: 32, Filters: 16, ConvUnits: 4, Classes: NumClasses}
}

// BuildNet constructs the classifier: the HEP conv backbone plus a fresh
// 3-class head.
func BuildNet(cfg ModelConfig, rng *tensor.RNG) *nn.Network {
	if cfg.ConvUnits < 2 {
		panic("astro: need at least 2 conv units")
	}
	minSize := 1 << (cfg.ConvUnits - 1)
	if cfg.ImageSize < minSize {
		panic(fmt.Sprintf("astro: image size %d too small for %d conv units", cfg.ImageSize, cfg.ConvUnits))
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
	net.Add(nn.NewDense("astro_fc", cfg.Filters, cfg.Classes, rng))
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

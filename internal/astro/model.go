package astro

import "deep15pf/internal/hep"

// Head names the astro classifier layer. The backbone is hep's classifier
// topology with its layer names (hep.BuildNet), so a HEP checkpoint's conv
// layers map into an astro model by name and shape; only the head is new,
// and its own name keeps any donor blob from colliding with it.
const Head = "astro_fc"

// PaperConfig mirrors the §III-A HEP scale for the astronomy workload —
// what a PHANGS/DES-sized run would fine-tune.
func PaperConfig() hep.ModelConfig {
	return hep.ModelConfig{Name: "astro-paper", ImageSize: 224, Filters: 128, ConvUnits: 5, Classes: NumClasses, Head: Head}
}

// SmallConfig is the laptop-scale variant, geometry-compatible with
// hep.SmallConfig so its checkpoints donate a full backbone.
func SmallConfig() hep.ModelConfig {
	return hep.ModelConfig{Name: "astro-small", ImageSize: 32, Filters: 16, ConvUnits: 4, Classes: NumClasses, Head: Head}
}

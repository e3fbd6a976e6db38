package harness

import (
	"fmt"

	"deep15pf/internal/climate"
	"deep15pf/internal/cluster"
	"deep15pf/internal/data"
	"deep15pf/internal/hep"
	"deep15pf/internal/tensor"
)

// Table1 reproduces Table I: characteristics of the datasets. Sample
// counts and resolutions are the paper's; volumes are recomputed from
// shape × count × 4 bytes, and the generators are exercised to show the
// stated shapes are what we actually produce.
func Table1(opts Options) Report {
	t := newTable("dataset", "pixels", "channels", "#images", "volume (paper)", "volume (raw float32)")

	hepVol := data.VolumeBytes(10_000_000, 3, 228, 228)
	climVol := data.VolumeBytes(400_000, 16, 768, 768)
	t.addf("HEP|228x228|3|10M|7.4 TB|%.1f TB", tb(hepVol))
	t.addf("Climate|768x768|16|0.4M|15 TB|%.1f TB", tb(climVol))

	// Demonstrate the generators produce the claimed shapes (at reduced
	// count; full-volume generation is pointless on one host).
	rng := tensor.NewRNG(opts.Seed)
	hepDS := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(32), 4, 0.5, rng)
	climDS := climate.GenerateDataset(climate.DefaultGenConfig(64), 2, rng)
	body := t.String() + fmt.Sprintf(
		"\nGenerator check: HEP sample shape %v, climate sample shape %v (scaled-down spatial sizes;\n"+
			"channel counts and layouts match Table I — the paper's raw volumes include file-format overhead).\n",
		hepDS.Images.Shape[1:], climDS.Samples[0].Field.Shape)
	return Report{ID: "table1", Title: "Dataset characteristics (Table I)", Body: body}
}

// Table2 reproduces Table II: DNN architecture specifications, with the
// parameter sizes read from the cluster model's profiles, which measure
// the real model definitions.
func Table2(opts Options) Report {
	hepP, climP := cluster.HEPProfile(), cluster.ClimateProfile()

	t := newTable("architecture", "input", "layers", "output", "params (paper)", "params (ours)")
	t.addf("Supervised HEP|224x224x3|5xconv-pool, 1xFC|class probability|2.3 MiB|%.2f MiB",
		mib(hepP.TotalModelBytes))
	t.addf("Semi-sup climate|768x768x16|9xconv, 5xdeconv|boxes, class, confidence|302.1 MiB|%.2f MiB",
		mib(climP.TotalModelBytes))

	body := t.String() + fmt.Sprintf(
		"\nTrainable layers: HEP %d (paper used 6 parameter servers), climate %d (paper used 14).\n"+
			"HEP parameter count %d; climate %d. Mid-network HEP conv layer model ≈ %.0f KB\n"+
			"(§VI-B2 cites ~590 KB as the per-layer allreduce payload).\n",
		hepP.NumTrainableLayers(), climP.NumTrainableLayers(),
		hepP.TotalModelBytes/4, climP.TotalModelBytes/4,
		float64(hepP.LayerBytes[1])/1000)
	return Report{ID: "table2", Title: "DNN architectures (Table II)", Body: body}
}

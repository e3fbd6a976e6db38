package astro

import (
	"bytes"
	"testing"

	"deep15pf/internal/core"
	"deep15pf/internal/data"
	"deep15pf/internal/hep"
	"deep15pf/internal/nn"
	"deep15pf/internal/opt"
	"deep15pf/internal/tensor"
)

// testModel is the tiny geometry shared with the donor HEP model below: 16
// px, 8 filters, 3 conv units — small enough for single-core test runs.
var testModel = hep.ModelConfig{Name: "astro-test", ImageSize: 16, Filters: 8, ConvUnits: 3, Classes: NumClasses, Head: Head}

// hepDonorBlobs trains nothing — it just builds the matching HEP net and
// serialises its (initialised) weights, which is all the mapping layer
// cares about.
func hepDonorBlobs(t *testing.T) []nn.WeightBlob {
	t.Helper()
	cfg := hep.ModelConfig{Name: "hep-donor", ImageSize: 16, Filters: 8, ConvUnits: 3, Classes: 2}
	net := hep.BuildNet(cfg, tensor.NewRNG(41))
	var buf bytes.Buffer
	if err := nn.SaveWeights(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	blobs, err := nn.ReadWeightBlobs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return blobs
}

func testDataset(seed uint64, n int) *hep.Dataset {
	return GenerateDataset(DefaultGenConfig(), NewRenderer(16), n, tensor.NewRNG(seed))
}

// TestHEPBackboneMapsIntoAstro pins the cross-workload contract: the HEP
// classifier's conv backbone maps into the astro model name-for-name, the
// donor's head is reported unused, and the astro head is reported fresh.
func TestHEPBackboneMapsIntoAstro(t *testing.T) {
	ds := testDataset(5, 12)
	p, res, err := hep.NewTransferProblem(ds, testModel, 9, hepDonorBlobs(t), hep.BackboneLayerNames(testModel.ConvUnits))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mapped) != 6 { // conv1..conv3 × (weight, bias)
		t.Fatalf("mapped %v, want the 3 conv pairs", res.Mapped)
	}
	if len(res.Unused) != 2 || res.Unused[0] != "fc.weight" {
		t.Fatalf("unused %v, want the donor fc pair", res.Unused)
	}
	if len(res.Extra) != 2 || res.Extra[0] != "astro_fc.weight" {
		t.Fatalf("extra %v, want the fresh astro head", res.Extra)
	}

	// Replicas and the problem's net actually carry the donor weights,
	// frozen.
	rep := p.NewReplica()
	if got := len(rep.TrainableLayers()); got != 1 {
		t.Fatalf("frozen replica has %d trainable layers, want 1 (the head)", got)
	}
	net := p.TrainedNet(core.ExtractWeights(rep.TrainableLayers()))
	donor := hepDonorBlobs(t)
	for _, prm := range net.Params() {
		for _, b := range donor {
			if b.Name != prm.Name {
				continue
			}
			for j, v := range b.Data {
				if prm.W.Data[j] != v {
					t.Fatalf("%s diverges from donor at %d", prm.Name, j)
				}
			}
		}
	}
}

// TestTransferProblemRejectsBadDonor: shape drift between nominally shared
// layers must fail at problem construction with the mapping error.
func TestTransferProblemRejectsBadDonor(t *testing.T) {
	cfg := hep.ModelConfig{Name: "hep-wide", ImageSize: 16, Filters: 16, ConvUnits: 3, Classes: 2}
	net := hep.BuildNet(cfg, tensor.NewRNG(41))
	var buf bytes.Buffer
	if err := nn.SaveWeights(&buf, net.Params()); err != nil {
		t.Fatal(err)
	}
	blobs, err := nn.ReadWeightBlobs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = hep.NewTransferProblem(testDataset(5, 12), testModel, 9, blobs, hep.BackboneLayerNames(3))
	if err == nil {
		t.Fatal("16-filter donor must not map into an 8-filter target")
	}
}

// TestFrozenRunBitwiseReproducible is the golden-machinery gate for the
// fine-tune path: two identical frozen runs must agree bit for bit on the
// trained head AND on the full model (frozen backbone included), and the
// shard-backed prefetched run must reproduce the in-memory trajectory.
func TestFrozenRunBitwiseReproducible(t *testing.T) {
	ds := testDataset(5, 24)
	donor := hepDonorBlobs(t)
	freeze := hep.BackboneLayerNames(testModel.ConvUnits)
	build := func() *hep.TrainingProblem {
		p, _, err := hep.NewTransferProblem(ds, testModel, 9, donor, freeze)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cfg := core.Config{Groups: 1, WorkersPerGroup: 2, GroupBatch: 8, Iterations: 6, Seed: 3}
	run := func(p *hep.TrainingProblem) (core.Result, []float32) {
		c := cfg
		c.Solver = opt.NewSGD(0.05, 0.9)
		res := core.TrainSync(p, c)
		// Full-model weights: the head from the run, the backbone from
		// the donor.
		var full []float32
		for _, prm := range p.TrainedNet(res.FinalWeights).Params() {
			full = append(full, prm.W.Data...)
		}
		return res, full
	}

	_, fullA := run(build())
	_, fullB := run(build())
	if len(fullA) == 0 || len(fullA) != len(fullB) {
		t.Fatalf("weight sizes %d vs %d", len(fullA), len(fullB))
	}
	for i, v := range fullA {
		if fullB[i] != v {
			t.Fatalf("repeat frozen run diverges at element %d", i)
		}
	}

	shard := build()
	paths, err := ds.SaveShards(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	set, err := data.OpenShardSet(paths...)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	shard.Backing = set
	_, fullC := run(shard)
	for i, v := range fullA {
		if fullC[i] != v {
			t.Fatalf("shard-backed prefetched frozen run diverges at element %d", i)
		}
	}
}

// TestFrozenExchangeZeroGradBytes is the acceptance assertion: with the
// backbone frozen, the parameter-server wire must carry exactly the head's
// gradient bytes — 4 bytes per head element per push — and nothing for the
// frozen layers.
func TestFrozenExchangeZeroGradBytes(t *testing.T) {
	ds := testDataset(5, 24)
	donor := hepDonorBlobs(t)
	cfg := core.Config{Groups: 2, WorkersPerGroup: 1, GroupBatch: 8, Iterations: 4, Seed: 3}
	run := func(freeze []string) core.Result {
		var p *hep.TrainingProblem
		if freeze != nil {
			var err error
			p, _, err = hep.NewTransferProblem(ds, testModel, 9, donor, freeze)
			if err != nil {
				t.Fatal(err)
			}
		} else {
			p = hep.NewTrainingProblem(ds, testModel, 9)
		}
		c := cfg
		c.Solver = opt.NewSGD(0.05, 0.9)
		return core.TrainHybrid(p, c)
	}

	frozen := run(hep.BackboneLayerNames(testModel.ConvUnits))
	full := run(nil)

	headElems := int64(testModel.Filters*testModel.Classes + testModel.Classes)
	if frozen.Wire.Pushes == 0 {
		t.Fatal("frozen run pushed nothing")
	}
	if want := 4 * headElems * frozen.Wire.Pushes; frozen.Wire.GradBytes != want {
		t.Fatalf("frozen run moved %d gradient bytes, want exactly %d (head only)",
			frozen.Wire.GradBytes, want)
	}
	// One PS per trainable layer: the frozen run fields 1, the full run 4.
	if frozen.Wire.Pushes*4 != full.Wire.Pushes {
		t.Fatalf("push counts %d (frozen) vs %d (full): frozen run still pushes backbone layers",
			frozen.Wire.Pushes, full.Wire.Pushes)
	}
	if frozen.Wire.GradBytes >= full.Wire.GradBytes/10 {
		t.Fatalf("frozen wire %d bytes, full wire %d — freezing saved too little",
			frozen.Wire.GradBytes, full.Wire.GradBytes)
	}
}

// TestFrozenTrainingIterationZeroAllocs keeps the PR 2 allocation gate on
// the fine-tune replica's warm path.
func TestFrozenTrainingIterationZeroAllocs(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	ds := testDataset(5, 16)
	p, _, err := hep.NewTransferProblem(ds, testModel, 9, hepDonorBlobs(t), hep.BackboneLayerNames(testModel.ConvUnits))
	if err != nil {
		t.Fatal(err)
	}
	rep := p.NewReplica()
	idx := []int{1, 5, 9, 13}
	iter := func() {
		rep.ZeroGrad()
		rep.ComputeGradients(idx)
	}
	iter() // warm: plan compile, staging growth
	for _, workers := range []int{1, 2, 4} {
		tensor.SetWorkers(workers)
		if allocs := testing.AllocsPerRun(20, iter); allocs != 0 {
			t.Fatalf("warmed frozen training iteration at %d workers allocates %v objects/op, want 0", workers, allocs)
		}
	}
}

// TestFineTuneLearnsHead: sanity that training only the head still learns
// the astro task (the A/B against from-scratch is the next test).
func TestFineTuneLearnsHead(t *testing.T) {
	train := testDataset(5, 96)
	p, _, err := hep.NewTransferProblem(train, testModel, 9, hepDonorBlobs(t), hep.BackboneLayerNames(testModel.ConvUnits))
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Groups: 1, WorkersPerGroup: 1, GroupBatch: 16, Iterations: 30, Seed: 3}
	cfg.Solver = opt.NewAdam(5e-3)
	res := core.TrainHybrid(p, cfg)
	first, last := res.Stats[0].Loss, res.Stats[len(res.Stats)-1].Loss
	if !(last < first) {
		t.Fatalf("frozen fine-tune did not learn: loss %.4f -> %.4f", first, last)
	}
	if acc := accuracyOn(p.TrainedNet(res.FinalWeights), train, 32); acc <= 1.0/NumClasses+0.05 {
		t.Fatalf("fine-tuned train accuracy %.3f no better than chance", acc)
	}
}

// TestFineTuneReachesTargetSooner is the transfer gate, deterministic
// (seeded data, seeded init, single-worker synchronous training): warm-
// started from a trained hep donor with conv1 frozen, the classifier
// reaches 45% held-out accuracy on 32 labeled cutouts within the budget
// grid, and the identical model trained from scratch does not get there in
// as few updates.
func TestFineTuneReachesTargetSooner(t *testing.T) {
	const target = 0.45
	dcfg := hep.ModelConfig{Name: "donor", ImageSize: 16, Filters: 8, ConvUnits: 3, Classes: 2}
	dds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(16), 256, 0.5, tensor.NewRNG(42))
	dp := hep.NewTrainingProblem(dds, dcfg, 43)
	dres := core.TrainSync(dp, core.Config{
		Groups: 1, WorkersPerGroup: 1, GroupBatch: 64, Iterations: 40,
		Solver: opt.NewAdamFull(2e-3, 0.9, 0.999, 1e-8), Seed: 42,
	})
	var buf bytes.Buffer
	if err := nn.SaveWeights(&buf, dp.TrainedNet(dres.FinalWeights).Params()); err != nil {
		t.Fatal(err)
	}
	donor, err := nn.ReadWeightBlobs(&buf)
	if err != nil {
		t.Fatal(err)
	}

	rng := tensor.NewRNG(42)
	train := GenerateDataset(DefaultGenConfig(), NewRenderer(16), 32, rng)
	test := GenerateDataset(DefaultGenConfig(), NewRenderer(16), 1024, rng)
	accuracy := func(p *hep.TrainingProblem, budget int) float64 {
		res := core.TrainSync(p, core.Config{
			Groups: 1, WorkersPerGroup: 1, GroupBatch: 32, Iterations: budget,
			Solver: opt.NewAdamFull(1e-2, 0.9, 0.999, 1e-8), Seed: 42,
		})
		return accuracyOn(p.TrainedNet(res.FinalWeights), test, 64)
	}
	for _, budget := range []int{4, 6, 8, 10, 14, 18, 24} {
		ftp, _, err := hep.NewTransferProblem(train, testModel, 43, donor, hep.BackboneLayerNames(testModel.ConvUnits)[:1])
		if err != nil {
			t.Fatal(err)
		}
		ft, scratch := accuracy(ftp, budget), accuracy(hep.NewTrainingProblem(train, testModel, 43), budget)
		t.Logf("budget %2d: fine-tune %.3f, scratch %.3f", budget, ft, scratch)
		if scratch >= target {
			t.Fatalf("from scratch reached %.0f%% after %d updates, no later than fine-tuning", 100*target, budget)
		}
		if ft >= target {
			return
		}
	}
	t.Fatalf("fine-tuning never reached %.0f%% within the budget grid", 100*target)
}

// accuracyOn is the fraction of ds a trained net classifies correctly.
func accuracyOn(net *nn.Network, ds *hep.Dataset, batch int) float64 {
	hits := 0
	for i, p := range hep.PredictDataset(net, ds, batch) {
		if p == ds.Labels[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(ds.Labels))
}

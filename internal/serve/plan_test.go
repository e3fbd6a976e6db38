package serve

import (
	"math"
	"path/filepath"
	"testing"

	"deep15pf/internal/climate"
	"deep15pf/internal/nn"
	"deep15pf/internal/tensor"
)

func loadReplica(t *testing.T, r *Registry, arch, path string, prec Precision) Model {
	t.Helper()
	lm, err := r.Load(arch, path, prec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := lm.NewReplica()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestPlannedHEPInferBitwiseIdentical is the serving half of the
// acceptance criterion: a replica's bucketed plan cache must produce
// bitwise-identical logits to an independently compiled plan of exactly
// the batch's size over the net the checkpoint came from, across the batch
// sizes a dynamic batcher actually produces.
func TestPlannedHEPInferBitwiseIdentical(t *testing.T) {
	net, _ := trainTinyHEP(t, 3)
	r := NewRegistry()
	RegisterHEP(r, "tiny", tinyHEP())
	rep := loadReplica(t, r, "tiny", saveTinyHEP(t, net), Float32)

	rng := tensor.NewRNG(91)
	for _, n := range []int{1, 2, 3, 5, 8} {
		x := tensor.New(append([]int{n}, rep.InShape()...)...)
		rng.FillNorm(x, 0, 1)
		want := nn.Compile(net, n, false, nil).Forward(x.Clone())
		got := rep.Infer(x)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("batch %d: logit %d diverges: %v vs %v", n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestPlannedClimateInferBitwiseIdentical covers the branching climate
// replica (climate.Scorer + packed response): at fp32 against
// independently compiled encoder and head plans, and at emulated int8
// against a fingerprint of all three batches taken at the commit that
// still ran the round trips between unplanned layers — the order of the
// rounding RNG's draws is part of the replica's contract.
func TestPlannedClimateInferBitwiseIdentical(t *testing.T) {
	cfg := climate.ModelConfig{
		Name: "tiny-climate", Size: 16,
		EncChannels: []int{6, 8}, EncStrides: []int{2, 2},
		DecChannels: []int{6, climate.NumChannels}, WithDecoder: true,
	}
	net := climate.BuildNet(cfg, tensor.NewRNG(2))
	path := filepath.Join(t.TempDir(), "climate.d15w")
	if err := nn.SaveFile(path, net.Params()); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	RegisterClimate(r, "tiny-climate", cfg)
	fp32 := loadReplica(t, r, "tiny-climate", path, Float32)
	int8 := loadReplica(t, r, "tiny-climate", path, Int8)

	feat := net.Encoder.OutShape()
	g, k := net.GridSize, int(climate.NumClasses)
	rng := tensor.NewRNG(93)
	hash := uint64(14695981039346656037)
	for _, n := range []int{1, 3, 4} {
		x := tensor.New(append([]int{n}, fp32.InShape()...)...)
		rng.FillNorm(x, 0, 1)
		got := fp32.Infer(x.Clone())
		f := nn.Compile(net.Encoder, n, false, nil).Forward(x.Clone())
		heads := []nn.Layer{net.ConfHead, net.ClassHead, net.BoxHead}
		var ys [3]*tensor.Tensor
		for i, l := range heads {
			ys[i] = nn.Compile(nn.NewNetwork("head", feat...).Add(l), n, false, nil).Forward(f)
		}
		at := 0
		for s := 0; s < n; s++ {
			for i, ch := range []int{1, k, 4} {
				for _, v := range ys[i].Data[s*ch*g*g : (s+1)*ch*g*g] {
					if got.Data[at] != v {
						t.Fatalf("batch %d: output %d diverges: %v vs %v", n, at, got.Data[at], v)
					}
					at++
				}
			}
		}
		for _, v := range int8.Infer(x).Data {
			hash = (hash ^ uint64(math.Float32bits(v))) * 1099511628211
		}
	}
	if want := uint64(0x4400342c1440778b); hash != want {
		t.Fatalf("emulated-int8 output fingerprint %#016x, want %#016x", hash, want)
	}
}

// TestPlannedInferAllocsBounded pins the serving-path allocation floor: a
// warmed replica's Infer allocates only the response tensor it hands the
// worker (3 objects: tensor, shape, data), independent of model depth and
// of the kernel worker count.
func TestPlannedInferAllocsBounded(t *testing.T) {
	defer tensor.SetWorkers(tensor.SetWorkers(1))
	net, _ := trainTinyHEP(t, 3)
	r := NewRegistry()
	RegisterHEP(r, "tiny", tinyHEP())
	rep := loadReplica(t, r, "tiny", saveTinyHEP(t, net), Float32)

	rng := tensor.NewRNG(95)
	x := tensor.New(append([]int{8}, rep.InShape()...)...)
	rng.FillNorm(x, 0, 1)
	rep.Infer(x) // warm: compiles the batch-8 plan
	for _, workers := range []int{1, 2, 4} {
		tensor.SetWorkers(workers)
		if got := testing.AllocsPerRun(50, func() { rep.Infer(x) }); got > 3 {
			t.Fatalf("warmed Infer at %d workers allocates %v objects/op, want <= 3 (the response tensor)", workers, got)
		}
	}
}

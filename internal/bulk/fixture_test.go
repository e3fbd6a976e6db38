package bulk

import (
	"path/filepath"
	"testing"

	"deep15pf/internal/data"
	"deep15pf/internal/hep"
	"deep15pf/internal/netserve"
	"deep15pf/internal/nn"
	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

// tinyCfg is the micro HEP classifier the bulk tests score: milliseconds
// to train, real logits to threshold.
func tinyCfg() hep.ModelConfig {
	return hep.ModelConfig{Name: "bulk-test", ImageSize: 8, Filters: 4, ConvUnits: 2, Classes: 2}
}

// trainTiny trains the tiny classifier a few plain-SGD steps so scored
// confidences are genuinely peaked, not init noise.
func trainTiny(t *testing.T, samples, steps int) (*nn.Network, *hep.Dataset) {
	t.Helper()
	rng := tensor.NewRNG(11)
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(8), samples, 0.5, rng)
	net := hep.BuildNet(tinyCfg(), rng)
	idx := make([]int, 16)
	plan := nn.Compile(net, len(idx), true, nil)
	for step := 0; step < steps; step++ {
		for i := range idx {
			idx[i] = (step*len(idx) + i) % len(ds.Labels)
		}
		x, labels := ds.Batch(idx)
		net.ZeroGrad()
		logits := plan.Forward(x)
		grad := tensor.New(logits.Shape...)
		nn.SoftmaxCrossEntropyInto(logits, labels, grad)
		plan.Backward(grad)
		for _, p := range net.Params() {
			for j := range p.W.Data {
				p.W.Data[j] -= 0.01 * p.Grad.Data[j] / float32(len(idx))
			}
		}
	}
	return net, ds
}

// loadTiny checkpoints net and loads it back through the serve registry at
// the given precision (Int8 is calibrated on the first 8 samples).
func loadTiny(t *testing.T, net *nn.Network, ds *hep.Dataset, prec serve.Precision) *serve.LoadedModel {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tiny.d15w")
	if err := nn.SaveFile(path, net.Params()); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	r := serve.NewRegistry()
	serve.RegisterHEP(r, "tiny", tinyCfg())
	lm, err := r.Load("tiny", path, prec)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if prec == serve.Int8 {
		x, _ := ds.Batch([]int{0, 1, 2, 3, 4, 5, 6, 7})
		if err := lm.Calibrate(x); err != nil {
			t.Fatalf("Calibrate: %v", err)
		}
	}
	return lm
}

// unlabeledShards writes ds's images (features only) as numShards shard
// files and opens them as one set.
func unlabeledShards(t *testing.T, ds *hep.Dataset, numShards int) *data.ShardSet {
	t.Helper()
	paths, err := ds.SaveShards(t.TempDir(), numShards)
	if err != nil {
		t.Fatalf("SaveShards: %v", err)
	}
	ss, err := data.OpenShardSet(paths...)
	if err != nil {
		t.Fatalf("OpenShardSet: %v", err)
	}
	t.Cleanup(func() { ss.Close() })
	return ss
}

// startBackend brings up one serve engine + network face on loopback,
// serving model "tiny" from lm. Cleanup is idempotent with an early
// mid-test kill.
func startBackend(t *testing.T, lm *serve.LoadedModel, scfg serve.Config) *netserve.Server {
	t.Helper()
	eng, err := serve.NewServer(lm, scfg)
	if err != nil {
		t.Fatalf("serve.NewServer: %v", err)
	}
	ns, err := netserve.NewServer("127.0.0.1:0", map[string]*serve.Server{"tiny": eng}, netserve.ServerConfig{})
	if err != nil {
		eng.Close()
		t.Fatalf("netserve.NewServer: %v", err)
	}
	t.Cleanup(func() {
		ns.Close()
		eng.Close()
	})
	return ns
}

// directTop1 computes the reference predictions with rep.Infer batch by
// batch at the same split the engine uses, so comparisons can demand
// bitwise equality.
func directTop1(t *testing.T, rep serve.Model, ss *data.ShardSet, batch int) ([]float32, []int32) {
	t.Helper()
	conf := make([]float32, ss.Count)
	label := make([]int32, ss.Count)
	scratch := make([]byte, ss.ScratchLen())
	shape := rep.InShape()
	for at := 0; at < ss.Count; at += batch {
		n := min(batch, ss.Count-at)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = at + i
		}
		x := tensor.New(append([]int{n}, shape...)...)
		if err := ss.ReadBatchInto(idx, x.Data, nil, scratch); err != nil {
			t.Fatalf("ReadBatchInto: %v", err)
		}
		if err := nn.SoftmaxTop1(rep.Infer(x), conf[at:at+n], label[at:at+n]); err != nil {
			t.Fatalf("SoftmaxTop1: %v", err)
		}
	}
	return conf, label
}

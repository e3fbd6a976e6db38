package netserve

import (
	"fmt"
	"path/filepath"
	"testing"

	"deep15pf/internal/hep"
	"deep15pf/internal/nn"
	"deep15pf/internal/serve"
	"deep15pf/internal/tensor"
)

// tinyHEPCfg is the micro HEP classifier the network tests serve: small
// enough that training a real checkpoint costs milliseconds, real enough
// that responses are genuine logits.
func tinyHEPCfg() hep.ModelConfig {
	return hep.ModelConfig{Name: "net-test", ImageSize: 8, Filters: 4, ConvUnits: 2, Classes: 2}
}

// trainAndSave trains the tiny model a few SGD steps and checkpoints it,
// returning the checkpoint path (what a backend process loads) and the
// request inputs drawn from the training set.
func trainAndSave(t *testing.T) (string, []*serve.LoadInput) {
	t.Helper()
	rng := tensor.NewRNG(11)
	ds := hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(8), 64, 0.5, rng)
	net := hep.BuildNet(tinyHEPCfg(), rng)
	idx := make([]int, 16)
	plan := nn.Compile(net, len(idx), true, nil)
	for step := 0; step < 4; step++ {
		for i := range idx {
			idx[i] = (step*len(idx) + i) % len(ds.Labels)
		}
		x, labels := ds.Batch(idx)
		net.ZeroGrad()
		_, grad := nn.SoftmaxCrossEntropy(plan.Forward(x), labels)
		plan.Backward(grad)
		for _, p := range net.Params() {
			for j := range p.W.Data {
				p.W.Data[j] -= 0.01 * p.Grad.Data[j] / float32(len(idx))
			}
		}
	}
	path := filepath.Join(t.TempDir(), "net-test.d15w")
	if err := nn.SaveFile(path, net.Params()); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}

	shape := ds.Images.Shape
	per := shape[1] * shape[2] * shape[3]
	inputs := make([]*serve.LoadInput, shape[0])
	for i := range inputs {
		inputs[i] = &serve.LoadInput{
			X: tensor.FromSlice(ds.Images.Data[i*per:(i+1)*per], shape[1], shape[2], shape[3]),
			Check: func(y *tensor.Tensor) error {
				if y.Len() != 2 {
					return fmt.Errorf("want 2 logits, got shape %v", y.Shape)
				}
				return nil
			},
		}
	}
	return path, inputs
}

// trainAndLoad trains the tiny model, checkpoints it, and loads it
// through the registry — the same fixture recipe the serve tests use, so
// the wire tier is exercised over real trained weights.
func trainAndLoad(t *testing.T) (*serve.LoadedModel, []*serve.LoadInput) {
	t.Helper()
	path, inputs := trainAndSave(t)
	r := serve.NewRegistry()
	serve.RegisterHEP(r, "tiny", tinyHEPCfg())
	lm, err := r.Load("tiny", path, serve.Float32)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return lm, inputs
}

// startBackend brings up a serve engine plus its network face on a
// loopback port. Cleanup drains the listener, then closes the engine —
// the ordering the production drain protocol requires.
func startBackend(t *testing.T, ncfg ServerConfig, scfg serve.Config) (*Server, *serve.Server, []*serve.LoadInput) {
	t.Helper()
	lm, inputs := trainAndLoad(t)
	eng, err := serve.NewServer(lm, scfg)
	if err != nil {
		t.Fatalf("serve.NewServer: %v", err)
	}
	ns, err := NewServer("127.0.0.1:0", map[string]*serve.Server{"tiny": eng}, ncfg)
	if err != nil {
		eng.Close()
		t.Fatalf("netserve.NewServer: %v", err)
	}
	t.Cleanup(func() {
		ns.Close()
		eng.Close()
	})
	return ns, eng, inputs
}

package main

// Adapter for internal/serve — the only file of the benchmark that imports
// it. Entry points used: NewRegistry, RegisterHEP, Registry.Load,
// LoadedModel.Calibrate, NewServer, Config, Server.Submit/InferBatch/
// Stats/ResetStats/Close, Float32/Int8.

import (
	"time"

	"deep15pf/internal/serve"
)

type (
	ServeModel  = serve.LoadedModel
	ServeEngine = serve.Server
	ServeStats  = serve.Stats
)

// loadHepCheckpoint registers m under its name in a fresh registry and
// loads the D15W checkpoint at path through it, at fp32 or int8.
func loadHepCheckpoint(m HepModel, path string, int8Path bool) (*ServeModel, error) {
	reg := serve.NewRegistry()
	serve.RegisterHEP(reg, m.Name, m)
	prec := serve.Float32
	if int8Path {
		prec = serve.Int8
	}
	return reg.Load(m.Name, path, prec)
}

// newEngine starts a dynamic-batching engine over lm.
func newEngine(lm *ServeModel, maxBatch, workers int, tr *Tracer) (*ServeEngine, error) {
	return serve.NewServer(lm, serve.Config{MaxBatch: maxBatch, Workers: workers, Trace: tr})
}

// probeSubmit sends n requests through Submit one at a time — nothing to
// batch with, so each pays the batcher's full floor — and returns the
// latencies in milliseconds, ascending.
func probeSubmit(eng *ServeEngine, inputs []*Tensor, n int) ([]float64, error) {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := eng.Submit(inputs[i%len(inputs)]); err != nil {
			return nil, err
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return sorted(lat), nil
}

// probeInferBatch times raw InferBatch over one staged batch and returns
// samples per second: the engine's kernels with no staging around them.
func probeInferBatch(eng *ServeEngine, x *Tensor, budget time.Duration) (float64, error) {
	var err error
	sec := timeLoop(budget, func() {
		if _, e := eng.InferBatch(x); e != nil {
			err = e
		}
	})
	return float64(x.Shape[0]) / sec, err
}

package nn

import (
	"fmt"
	"runtime"
	"testing"

	"deep15pf/internal/tensor"
)

// BenchmarkInferForward times a warm inference-plan Forward of 256
// hep-small samples — the fp32 pass of the score_bulk workload — and, as
// the Fig. 5 forward table of that pass, each of its conv units on its own
// (Conv2D → ReLU → max-pool, the fourth unit's global average pool left
// out) as a one-unit inference plan at the same batch. The lane count
// follows -cpu: go test -run '^$' -bench InferForward -cpu 1,2 ./internal/nn.
// Every sub-benchmark reports samples/s next to ns/op.
func BenchmarkInferForward(b *testing.B) {
	defer tensor.SetWorkers(tensor.SetWorkers(runtime.GOMAXPROCS(0)))
	const n = 256
	rng := tensor.NewRNG(1)
	net := hepSmallNet(rng)
	net.ReleaseGradients()
	nets := []*Network{net}
	in := net.InShape
	for u, l := range net.Layers {
		if c, ok := l.(*Conv2D); ok {
			unit := NewNetwork(fmt.Sprintf("conv%d", len(nets)), in...).Add(c, net.Layers[u+1])
			if p, ok := net.Layers[u+2].(*MaxPool2D); ok {
				unit.Add(p)
			}
			nets = append(nets, unit)
		}
		in = l.OutShape(in)
	}
	for _, nt := range nets {
		x := randBatch(rng, n, nt.InShape)
		p := Compile(nt, n, false, nil)
		p.Forward(x) // mints the lanes
		b.Run(nt.NetName, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Forward(x)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
		p.Release()
	}
}

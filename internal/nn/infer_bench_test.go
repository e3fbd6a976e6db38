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

// BenchmarkQuantForward is BenchmarkInferForward's int8 twin: a warm
// calibrated QuantPlan.Forward of 256 hep-small samples — score_bulk's int8
// pass — and, as the per-unit table of that pass, each unit's steps on
// their own: conv1–3 with the pooled epilogue that writes the next conv's
// bytes, conv4 with its fp32 store, ReLU and global average pool, and the
// classifier. A unit runs through the plan's own tiler — its lanes, its
// one fork — over the batch's tiles as Forward runs it, reading the inputs
// a warm pass left resident, so the units sum to the whole. The lane count follows -cpu: go test -run '^$'
// -bench QuantForward -cpu 1,2 ./internal/nn.
func BenchmarkQuantForward(b *testing.B) {
	defer tensor.SetWorkers(tensor.SetWorkers(runtime.GOMAXPROCS(0)))
	const n = 256
	rng := tensor.NewRNG(1)
	net := hepSmallNet(rng)
	net.ReleaseGradients()
	x := randBatch(rng, n, net.InShape)
	p := CompileQuantized(net, n, CalibrateActivations(net, x), nil)
	defer p.Release()
	p.Forward(x) // mints the lanes
	b.Run(net.NetName, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Forward(x)
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
	})
	var starts []int
	for i, l := range net.Layers {
		switch l.(type) {
		case *Conv2D, *Dense:
			starts = append(starts, i)
		}
	}
	starts = append(starts, len(net.Layers))
	lanes := p.tiles.lanes
	plans := make([]lanePlan, len(lanes))
	for i, l := range lanes {
		plans[i] = l.plan
	}
	out := tensor.New(InferTile, shapeElems(net.OutShape()))
	for u := 0; u+1 < len(starts); u++ {
		lo, hi := starts[u], starts[u+1]
		for i, l := range lanes {
			l.plan = unitPlan{plans[i].(*QuantPlan), lo, hi, out}
		}
		b.Run(net.Layers[lo].Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Forward(x)
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
		})
	}
	for i, l := range lanes {
		l.plan = plans[i]
	}
}

// unitPlan is a lane's plan cut down to steps [lo, hi): the tiler runs it
// over the batch's tiles on its own lanes, as it runs the whole plan. The
// steps before lo are skipped, their outputs taken as a warm pass left
// them, and the tiler copies out, whatever it is, a tile's worth of out.
type unitPlan struct {
	p      *QuantPlan
	lo, hi int
	out    *tensor.Tensor
}

func (u unitPlan) Forward(x *tensor.Tensor) *tensor.Tensor {
	quantSteps(u.p, x, u.lo, u.hi)
	return u.out
}

func (u unitPlan) Release() {}

// quantSteps runs steps [lo, hi) of a tile-capacity QuantPlan the way
// Forward does, x being the plan's input: the steps before lo are skipped,
// their outputs taken as they are.
func quantSteps(p *QuantPlan, x *tensor.Tensor, lo, hi int) {
	n := x.Shape[0]
	cur := x
	for i := range p.steps[:hi] {
		s := &p.steps[i]
		if s.q == nil && s.layer == nil {
			continue
		}
		var y *tensor.Tensor
		if s.ySlab != nil {
			y = view(s.y, s.ySlab, n, s.outPer)
		}
		switch {
		case i < lo:
		case s.q != nil:
			s.q.forward(y, cur, n)
		default:
			s.layer.ForwardInto(&s.st, y, cur, false)
		}
		cur = y
	}
}

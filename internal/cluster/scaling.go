package cluster

// ScalePoint is one point of a scaling curve.
type ScalePoint struct {
	Nodes      int
	Groups     int
	Throughput float64 // images/second
	Speedup    float64 // vs the 1-node baseline of the sweep
	IterTime   float64 // mean seconds per iteration
}

// StrongScaling reproduces the Fig 6 experiment: total batch per update is
// fixed (2048 in the paper); the synchronous configuration splits it over
// all nodes, while each hybrid group is assigned a complete batch
// (§VI-B1). Speedups are relative to a single node processing one full
// batch, matching the figure's normalisation.
func StrongScaling(m MachineSpec, p NetProfile, nodesList []int, groups, batchPerGroup, iterations int, seed uint64) []ScalePoint {
	return sweep(m, p, nodesList, groups, batchPerGroup, iterations, seed,
		func(nodes, groups int) int { return batchPerGroup })
}

// WeakScaling reproduces the Fig 7 experiment: batch fixed at 8 per node
// for every configuration; speedup is throughput relative to one node
// processing batch 8.
func WeakScaling(m MachineSpec, p NetProfile, nodesList []int, groups, batchPerNode, iterations int, seed uint64) []ScalePoint {
	return sweep(m, p, nodesList, groups, batchPerNode, iterations, seed,
		func(nodes, groups int) int { return batchPerNode * (nodes / groups) })
}

// sweep simulates one run per node count, with groups (1 below that many
// nodes) sharing batchPerGroup(nodes, groups) each, against one node at
// baseBatch.
func sweep(m MachineSpec, p NetProfile, nodesList []int, groups, baseBatch, iterations int, seed uint64, batchPerGroup func(nodes, groups int) int) []ScalePoint {
	base := Simulate(m, p, RunConfig{
		Nodes: 1, Groups: 1, BatchPerGroup: baseBatch,
		Iterations: iterations, Seed: seed,
	})
	points := make([]ScalePoint, 0, len(nodesList))
	for _, n := range nodesList {
		g := groups
		if n < g {
			g = 1
		}
		r := Simulate(m, p, RunConfig{
			Nodes: n, Groups: g, BatchPerGroup: batchPerGroup(n, g),
			Iterations: iterations, Seed: seed + uint64(n),
		})
		points = append(points, ScalePoint{
			Nodes: n, Groups: g,
			Throughput: r.Throughput,
			Speedup:    r.Throughput / base.Throughput,
			IterTime:   r.MeanIterTime(),
		})
	}
	return points
}

// FullSystemResult carries the §VI-B3 headline numbers.
type FullSystemResult struct {
	ComputeNodes, PSNodes, Groups int
	BatchPerGroup                 int
	PeakFlops, SustainedFlops     float64 // algorithmic
	ExecPeak, ExecSustained       float64 // lane-padded ("executed")
	Speedup                       float64 // vs single node at the same per-node batch
	MeanIterTime                  float64
}

// FullSystem reproduces the full-machine configurations of §VI-B3:
//
//	HEP:     9594 compute + 6 PS nodes, 9 groups, minibatch 1066/group;
//	Climate: 9608 compute + 14 PS nodes, 8 groups, minibatch 9608/group,
//	         checkpointing every 10 iterations.
//
// Speedup is measured against a single node at the same per-node batch
// (the paper's "speedup over single node performance").
func FullSystem(m MachineSpec, p NetProfile, computeNodes, groups, batchPerGroup, iterations, checkpointEvery int, seed uint64) FullSystemResult {
	r := Simulate(m, p, RunConfig{
		Nodes: computeNodes, Groups: groups, BatchPerGroup: batchPerGroup,
		Iterations: iterations, CheckpointEvery: checkpointEvery, Seed: seed,
	})
	perNode := batchPerGroup / (computeNodes / groups)
	if perNode < 1 {
		perNode = 1
	}
	base := Simulate(m, p, RunConfig{
		Nodes: 1, Groups: 1, BatchPerGroup: perNode,
		Iterations: iterations, Seed: seed + 1,
	})
	return FullSystemResult{
		ComputeNodes:   computeNodes,
		PSNodes:        r.PSNodes,
		Groups:         groups,
		BatchPerGroup:  batchPerGroup,
		PeakFlops:      r.PeakFlopRate,
		SustainedFlops: r.SustainedFlopRate,
		ExecPeak:       r.ExecPeak,
		ExecSustained:  r.ExecSustained,
		Speedup:        r.Throughput / base.Throughput,
		MeanIterTime:   r.MeanIterTime(),
	}
}

package main

// Adapter for internal/hep — the only file of the benchmark that imports
// it. Entry points used: ModelConfig, SmallConfig, BuildNet, GenerateDataset,
// DefaultGenConfig, NewRenderer, Dataset.SaveShards/Batch,
// NewTrainingProblem, TrainingProblem.Backing.

import "deep15pf/internal/hep"

type (
	HepModel   = hep.ModelConfig
	HepDataset = hep.Dataset
)

// hepSmall is the repo's laptop-scale HEP model: 32×32, 16 filters, 4 conv
// units.
func hepSmall() HepModel { return hep.SmallConfig() }

// hepTiny is the smallest model the builder accepts (≈15 µs of compute per
// sample), for the workload that must show the serving path and nothing
// else. The 8×8, 16-filter model first proposed costs 110 µs per sample on
// the baseline host — half of the latency it was meant to be absent from.
func hepTiny() HepModel {
	return HepModel{Name: "hep-tiny", ImageSize: 4, Filters: 8, ConvUnits: 2, Classes: 2}
}

func hepBuildNet(m HepModel, seed uint64) *Network { return hep.BuildNet(m, newRNG(seed)) }

// hepGenerate draws n events (half signal) at the model's image size.
func hepGenerate(m HepModel, n int, seed uint64) *HepDataset {
	return hep.GenerateDataset(hep.DefaultGenConfig(), hep.NewRenderer(m.ImageSize), n, 0.5, newRNG(seed))
}

// hepProblem binds ds to model m for the trainers; with a shard set,
// replicas read their features back from disk.
func hepProblem(ds *HepDataset, m HepModel, initSeed uint64, backing *ShardSet) Problem {
	p := hep.NewTrainingProblem(ds, m, initSeed)
	p.Backing = backing
	return p
}

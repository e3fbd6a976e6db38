package main

// Adapter for internal/climate — the only file of the benchmark that
// imports it. Entry points used: ModelConfig, NumChannels, BuildNet,
// Net.FLOPsPerSample/NumParams, GenerateDataset, DefaultGenConfig,
// NewTrainingProblem, TrainingProblem.LabeledFrac.

import "deep15pf/internal/climate"

type (
	ClimateModel   = climate.ModelConfig
	ClimateDataset = climate.Dataset
)

// climateHeavy is the parameter-heavy net this benchmark defines for
// itself: 360k parameters on a 32×32 grid, so that with tiny per-step
// batches the exchange and the solver are as large a share of an update as
// the in-process system can show. Encoder to a 4×4 grid, three score heads,
// three-stage deconvolutional decoder back to 32×32×16.
func climateHeavy() ClimateModel {
	return ClimateModel{
		Name: "climate-bench", Size: 32,
		EncChannels: []int{32, 64, 96, 128}, EncStrides: []int{2, 2, 2, 1},
		DecChannels: []int{64, 32, climate.NumChannels}, WithDecoder: true,
	}
}

func climateGenerate(m ClimateModel, n int, seed uint64) *ClimateDataset {
	return climate.GenerateDataset(climate.DefaultGenConfig(m.Size), n, newRNG(seed))
}

// climateProblem binds ds to m with the first labeledFrac of the samples
// labeled; the rest contribute only the reconstruction term.
func climateProblem(ds *ClimateDataset, m ClimateModel, initSeed uint64, labeledFrac float64) Problem {
	p := climate.NewTrainingProblem(ds, m, initSeed)
	p.LabeledFrac = labeledFrac
	return p
}

// climateCosts returns nn's exact forward+backward flop count per sample,
// the parameter count and the number of trainable layers (one parameter
// server each) — computed, not measured.
func climateCosts(m ClimateModel) (flopsPerSample float64, params, layers int) {
	net := climate.BuildNet(m, newRNG(1))
	return float64(net.FLOPsPerSample().Total()), net.NumParams(), len(net.TrainableLayers())
}

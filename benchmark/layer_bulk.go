package main

// Adapter for internal/bulk — the only file of the benchmark that imports
// it. Entry points used: NewEngine, Config, Engine.Score, Predictions,
// Result.

import "deep15pf/internal/bulk"

type (
	BulkEngine      = bulk.Engine
	BulkPredictions = bulk.Predictions
	BulkResult      = bulk.Result
)

func newBulkEngine(lm *ServeModel, batch int, tr *Tracer) (*BulkEngine, error) {
	return bulk.NewEngine(lm, bulk.Config{Batch: batch, Trace: tr})
}

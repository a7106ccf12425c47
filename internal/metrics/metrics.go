// Package metrics is what remains of the evaluator-counter API under its old
// import path, for the benchmark module that still imports it. Every count
// lives in internal/obs: the evaluator's are engine.Stats and engine.Totals,
// a node's are read through dist.Node.
package metrics

import "secureblox/internal/engine"

// EngineStats is engine.Stats.
type EngineStats = engine.Stats

// EngineTotals returns engine.Totals().
func EngineTotals() EngineStats { return engine.Totals() }

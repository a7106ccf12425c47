package engine

import (
	"fmt"

	"secureblox/internal/obs"
)

// Stats counts local-evaluator events: how join steps were answered (index
// probe vs. relation scan) and how many semi-naïve rounds fixpoints took.
// LeadingScans are full iterations where no column was bound — the outermost
// loop of a join plan (the delta loop of a semi-naïve evaluation included),
// inherent to evaluation. FullScanFallbacks are scans forced despite bound
// columns (a missing or unusable index); a regression in join planning shows
// up here as a nonzero count. TuplesScanned is the work all of them did: per
// transaction it must track the delta, not the stored relations.
type Stats struct {
	IndexProbes       int64 // probes answered by a hash index (functional, secondary, or full-tuple)
	LeadingScans      int64 // full scans with no bound column (legitimate outer loops)
	FullScanFallbacks int64 // scans despite bound columns — should stay 0
	FixpointRounds    int64 // semi-naïve rounds across all fixpoints
	TuplesScanned     int64 // tuples, stored or delta, handed to unification by a match step
}

// Sub returns s - o, component-wise (for before/after deltas).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		IndexProbes:       s.IndexProbes - o.IndexProbes,
		LeadingScans:      s.LeadingScans - o.LeadingScans,
		FullScanFallbacks: s.FullScanFallbacks - o.FullScanFallbacks,
		FixpointRounds:    s.FixpointRounds - o.FixpointRounds,
		TuplesScanned:     s.TuplesScanned - o.TuplesScanned,
	}
}

// String renders the counters compactly for benchmark logs.
func (s Stats) String() string {
	return fmt.Sprintf("probes=%d leading-scans=%d fallback-scans=%d rounds=%d tuples-scanned=%d",
		s.IndexProbes, s.LeadingScans, s.FullScanFallbacks, s.FixpointRounds, s.TuplesScanned)
}

// The process-wide evaluator counters live in the obs registry, registered
// at init so /metrics shows the engine family (at zero) before the first
// transaction; the package keeps the handles so publishing costs five atomic
// adds rather than five name lookups per transaction.
var cIndexProbes, cLeadingScans, cFullScanFallbacks, cFixpointRounds, cTuplesScanned *obs.Counter

func init() {
	r := obs.Default()
	r.Help("sbx_engine_index_probes_total", "Join steps answered by a hash index.")
	r.Help("sbx_engine_leading_scans_total", "Full scans with no bound column (legitimate outer loops).")
	r.Help("sbx_engine_fullscan_fallbacks_total", "Scans forced despite bound columns — should stay 0.")
	r.Help("sbx_engine_fixpoint_rounds_total", "Semi-naïve rounds across all fixpoints.")
	r.Help("sbx_engine_tuples_scanned_total", "Tuples, stored or delta, handed to unification by a match step.")
	cIndexProbes = r.Counter("sbx_engine_index_probes_total", nil)
	cLeadingScans = r.Counter("sbx_engine_leading_scans_total", nil)
	cFullScanFallbacks = r.Counter("sbx_engine_fullscan_fallbacks_total", nil)
	cFixpointRounds = r.Counter("sbx_engine_fixpoint_rounds_total", nil)
	cTuplesScanned = r.Counter("sbx_engine_tuples_scanned_total", nil)
}

// accumulate folds one workspace's counter delta into the process-wide
// totals. Workspaces publish after each transaction, so a cluster benchmark
// can observe every node's evaluator behaviour without reaching into the
// nodes.
func accumulate(d Stats) {
	cIndexProbes.Add(d.IndexProbes)
	cLeadingScans.Add(d.LeadingScans)
	cFullScanFallbacks.Add(d.FullScanFallbacks)
	cFixpointRounds.Add(d.FixpointRounds)
	cTuplesScanned.Add(d.TuplesScanned)
}

// Totals returns the process-wide evaluator counters. They are cumulative
// (Prometheus semantics): a run's share is the difference of two readings
// (Stats.Sub). The five loads are not one snapshot; readers take them while
// no transaction is running.
func Totals() Stats {
	return Stats{
		IndexProbes:       cIndexProbes.Value(),
		LeadingScans:      cLeadingScans.Value(),
		FullScanFallbacks: cFullScanFallbacks.Value(),
		FixpointRounds:    cFixpointRounds.Value(),
		TuplesScanned:     cTuplesScanned.Value(),
	}
}

package engine

import (
	"strings"
	"testing"

	"secureblox/internal/obs"
)

// TestEngineTotalsAreTheRegistryCounters: the totals have no store of their
// own — a reading after accumulate(d) minus one before is d, and it is the
// same delta the sbx_engine_*_total registry counters show.
func TestEngineTotalsAreTheRegistryCounters(t *testing.T) {
	registry := func() Stats {
		v := func(name string) int64 { return obs.Default().CounterValue("sbx_engine_" + name + "_total") }
		return Stats{
			IndexProbes: v("index_probes"), LeadingScans: v("leading_scans"),
			FullScanFallbacks: v("fullscan_fallbacks"), FixpointRounds: v("fixpoint_rounds"),
			TuplesScanned: v("tuples_scanned"),
		}
	}
	d := Stats{IndexProbes: 2, LeadingScans: 4, FullScanFallbacks: 1, FixpointRounds: 3, TuplesScanned: 17}
	before, regBefore := Totals(), registry()
	accumulate(d)
	if got := Totals().Sub(before); got != d {
		t.Errorf("Totals delta = %+v, want %+v", got, d)
	}
	if got := registry().Sub(regBefore); got != d {
		t.Errorf("registry counter delta = %+v, want %+v", got, d)
	}
}

// TestEngineStatsArithmeticAndAccumulation checks Sub and String, and that a
// workspace's transactions publish exactly its own counter growth into the
// process-wide totals.
func TestEngineStatsArithmeticAndAccumulation(t *testing.T) {
	a := Stats{IndexProbes: 10, LeadingScans: 4, FullScanFallbacks: 1, FixpointRounds: 3}
	b := Stats{IndexProbes: 7, LeadingScans: 4, FixpointRounds: 2}
	d := a.Sub(b)
	if d != (Stats{IndexProbes: 3, FullScanFallbacks: 1, FixpointRounds: 1}) {
		t.Errorf("Sub: %+v", d)
	}

	before := Totals()
	accumulate(Stats{IndexProbes: 5, FixpointRounds: 2})
	accumulate(Stats{IndexProbes: 1, LeadingScans: 3})
	delta := Totals().Sub(before)
	want := Stats{IndexProbes: 6, LeadingScans: 3, FixpointRounds: 2}
	if delta != want {
		t.Errorf("accumulated delta %+v, want %+v", delta, want)
	}
	if s := delta.String(); !strings.Contains(s, "probes=6") || !strings.Contains(s, "rounds=2") {
		t.Errorf("String(): %s", s)
	}

	w := chainWorkspace(t, 8)
	before, own := Totals(), w.Stats()
	if _, err := w.Assert(inFacts(8, 12)); err != nil {
		t.Fatal(err)
	}
	grew := w.Stats().Sub(own)
	if grew.FixpointRounds == 0 {
		t.Fatalf("an assert that derives ran no fixpoint round: %s", grew)
	}
	if got := Totals().Sub(before); got != grew {
		t.Errorf("one transaction moved the totals by %s, want the workspace's own growth %s", got, grew)
	}
}

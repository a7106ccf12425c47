package obs

import (
	"path/filepath"
	"testing"
)

func cmpReports(t *testing.T, mutate func(*BenchSchemeResult), timing bool) []CellDelta {
	t.Helper()
	base := BenchReport{Results: []BenchSchemeResult{
		{Scheme: "NoAuth", N: 6, FixpointSeconds: 1.0, BytesShipped: 1000, Txns: 100, FixpointRounds: 50, TxnP90Ms: 2.0},
		{Scheme: "RSA", N: 6, FixpointSeconds: 2.0, RSASignOps: 40, BytesShipped: 2000, Txns: 100, FixpointRounds: 50},
	}}
	cur := BenchReport{Results: make([]BenchSchemeResult, len(base.Results))}
	copy(cur.Results, base.Results)
	mutate(&cur.Results[0])
	return CompareBench(base, cur, 0.15, timing)
}

func TestCompareBenchWithinThreshold(t *testing.T) {
	// +10% everywhere: inside the 15% budget, no regression reported.
	got := cmpReports(t, func(r *BenchSchemeResult) {
		r.FixpointSeconds *= 1.10
		r.BytesShipped = 1100
		r.Txns = 110
	}, true)
	if len(got) != 0 {
		t.Fatalf("within-threshold drift flagged: %v", got)
	}
}

func TestCompareBenchFlagsRegression(t *testing.T) {
	got := cmpReports(t, func(r *BenchSchemeResult) { r.BytesShipped = 1200 }, false)
	if len(got) != 1 || got[0].Metric != "bytes_shipped" || got[0].Scheme != "NoAuth" {
		t.Fatalf("expected one bytes_shipped regression, got %v", got)
	}
	if got[0].Old != 1000 || got[0].New != 1200 {
		t.Fatalf("wrong cell values: %v", got[0])
	}
}

func TestCompareBenchTimingGate(t *testing.T) {
	slow := func(r *BenchSchemeResult) { r.FixpointSeconds = 2.0 }
	if got := cmpReports(t, slow, false); len(got) != 0 {
		t.Fatalf("timing flagged with timing=false: %v", got)
	}
	got := cmpReports(t, slow, true)
	if len(got) != 1 || got[0].Metric != "fixpoint_s" {
		t.Fatalf("expected one fixpoint_s regression, got %v", got)
	}
}

func TestCompareBenchCounterFromZero(t *testing.T) {
	// A counter appearing from zero (e.g. RSA signs under NoAuth) is a
	// regression no matter the ratio.
	got := cmpReports(t, func(r *BenchSchemeResult) { r.RSASignOps = 1 }, false)
	if len(got) != 1 || got[0].Metric != "rsa_sign_ops" {
		t.Fatalf("expected rsa_sign_ops from-zero regression, got %v", got)
	}
}

func TestCompareBenchFaultCountersFromZero(t *testing.T) {
	// Fault counters are zero in every healthy baseline, so any of them
	// appearing flags the run even at ratio +inf — the transport started
	// dropping, or the measurement ran under fault injection.
	got := cmpReports(t, func(r *BenchSchemeResult) {
		r.Retransmits = 3
		r.Evictions = 1
		r.ChaosFaults = 12
	}, false)
	want := map[string]bool{"retransmits": true, "evictions": true, "chaos_faults": true}
	if len(got) != len(want) {
		t.Fatalf("expected %d fault-counter regressions, got %v", len(want), got)
	}
	for _, d := range got {
		if !want[d.Metric] {
			t.Errorf("unexpected regression metric %q", d.Metric)
		}
	}
}

func TestCompareBenchIgnoresUnsharedCells(t *testing.T) {
	base := BenchReport{Results: []BenchSchemeResult{{Scheme: "NoAuth", N: 6, Txns: 10}}}
	cur := BenchReport{Results: []BenchSchemeResult{{Scheme: "NoAuth", N: 12, Txns: 9999}}}
	if got := CompareBench(base, cur, 0.15, true); len(got) != 0 {
		t.Fatalf("unshared cell compared: %v", got)
	}
}

// The checked-in reports must compare clean against themselves — the CI
// gate's degenerate case.
func TestCheckedInReportsSelfCompare(t *testing.T) {
	for _, name := range []string{"BENCH_fig4_pathvector.json", "BENCH_fig7_hashjoin.json"} {
		r, err := ReadBenchJSON(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Results) == 0 {
			t.Fatalf("%s: empty report", name)
		}
		if got := CompareBench(r, r, 0.15, true); len(got) != 0 {
			t.Fatalf("%s: self-compare regressed: %v", name, got)
		}
	}
}

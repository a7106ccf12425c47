package metrics

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"secureblox/internal/obs"
)

func TestNodeMetricsAccumulation(t *testing.T) {
	m := NewNodeMetrics("accumulation")
	m.RecordTxn(10 * time.Millisecond)
	m.RecordTxn(30 * time.Millisecond)
	cnt, mean := m.TxnStats()
	if cnt != 2 || mean != 20*time.Millisecond {
		t.Errorf("got %d, %v", cnt, mean)
	}
	if len(m.TxnCompletions()) != 2 {
		t.Error("completions not recorded")
	}
	m.RecordViolation()
	if m.Violations() != 1 {
		t.Error("violation not counted")
	}
	if m.LastActivity().IsZero() {
		t.Error("last activity not tracked")
	}
}

// TestNodeMetricsInstanceAndFamilyViews pins the two promises the child
// counters make. Two live nodes of one principal each read their own traffic
// exactly while the registry family rises by the sum; and a node built after
// an earlier one is discarded starts at zero while the family keeps growing —
// the pattern of a benchmark that rebuilds n0…n23 every repetition and takes
// before/after deltas of the family.
func TestNodeMetricsInstanceAndFamilyViews(t *testing.T) {
	family := func(name string) int64 { return obs.Default().CounterValue(name) }
	names := []string{"sbx_msgs_sent_total", "sbx_bytes_sent_total", "sbx_msgs_recv_total",
		"sbx_bytes_recv_total", "sbx_msgs_processed_total", "sbx_violations_total", "sbx_txns_total"}
	before := map[string]int64{}
	for _, n := range names {
		before[n] = family(n)
	}
	txnsBefore := obs.Default().HistogramSnapshot("sbx_txn_duration_seconds")

	a, b := NewNodeMetrics("twin"), NewNodeMetrics("twin")
	a.RecordSent(100)
	a.RecordSent(50)
	a.RecordRecv(7)
	a.RecordMsgProcessed()
	a.RecordTxn(time.Millisecond)
	b.RecordSent(1000)
	b.RecordRecv(70)
	b.RecordRecv(30)
	b.RecordMsgProcessed()
	b.RecordMsgProcessed()
	b.RecordViolation()
	if got, want := a.Traffic(), (Traffic{MsgsSent: 2, BytesSent: 150, MsgsRecv: 1, BytesRecv: 7}); got != want {
		t.Errorf("a reads %+v, want its own %+v", got, want)
	}
	if got, want := b.Traffic(), (Traffic{MsgsSent: 1, BytesSent: 1000, MsgsRecv: 2, BytesRecv: 100}); got != want {
		t.Errorf("b reads %+v, want its own %+v", got, want)
	}
	if a.MsgsProcessed() != 1 || b.MsgsProcessed() != 2 || a.Violations() != 0 || b.Violations() != 1 {
		t.Errorf("processed %d/%d, violations %d/%d; want 1/2 and 0/1",
			a.MsgsProcessed(), b.MsgsProcessed(), a.Violations(), b.Violations())
	}
	if n, _ := a.TxnStats(); n != 1 {
		t.Errorf("a committed %d transactions, want 1", n)
	}
	if n, _ := b.TxnStats(); n != 0 || a.LastActivity().IsZero() || b.LastActivity().IsZero() {
		t.Errorf("b committed %d transactions (want 0); last activity a %v b %v", n, a.LastActivity(), b.LastActivity())
	}
	want := map[string]int64{"sbx_msgs_sent_total": 3, "sbx_bytes_sent_total": 1150, "sbx_msgs_recv_total": 3,
		"sbx_bytes_recv_total": 107, "sbx_msgs_processed_total": 3, "sbx_violations_total": 1, "sbx_txns_total": 1}
	for _, n := range names {
		if got := family(n) - before[n]; got != want[n] {
			t.Errorf("%s rose by %d, want the sum over both nodes %d", n, got, want[n])
		}
	}
	if d := obs.Default().HistogramSnapshot("sbx_txn_duration_seconds").Sub(txnsBefore); d.Count != 1 {
		t.Errorf("sbx_txn_duration_seconds gained %d samples, want 1", d.Count)
	}

	// Rebuild: a new node of the same principal starts from zero and the
	// family does not.
	c := NewNodeMetrics("twin")
	if got := c.Traffic(); got != (Traffic{}) || c.MsgsProcessed() != 0 || c.Violations() != 0 || !c.LastActivity().IsZero() {
		t.Errorf("a rebuilt node starts at %+v, want zero", got)
	}
	c.RecordSent(5)
	if got := c.Traffic().BytesSent; got != 5 {
		t.Errorf("rebuilt node sent %d bytes, want 5", got)
	}
	if got := family("sbx_bytes_sent_total") - before["sbx_bytes_sent_total"]; got != 1155 {
		t.Errorf("sbx_bytes_sent_total rose by %d across the rebuild, want 1155", got)
	}
}

func TestCDFPointsMonotoneQuick(t *testing.T) {
	f := func(raw []int16) bool {
		c := &CDF{}
		for _, v := range raw {
			c.Add(time.Duration(v) * time.Millisecond)
		}
		pts := c.Points()
		if len(pts) != len(raw) {
			return false
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].At < pts[i-1].At || pts[i].Fraction <= pts[i-1].Fraction {
				return false
			}
		}
		return len(pts) == 0 || pts[len(pts)-1].Fraction == 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCDFQuantilesAndFraction(t *testing.T) {
	c := &CDF{}
	for i := 1; i <= 10; i++ {
		c.Add(time.Duration(i) * time.Second)
	}
	if q := c.Quantile(0.5); q != 5*time.Second && q != 6*time.Second {
		t.Errorf("median %v", q)
	}
	if f := c.FractionBy(3 * time.Second); f != 0.3 {
		t.Errorf("FractionBy(3s) = %v", f)
	}
	if f := c.FractionBy(time.Hour); f != 1.0 {
		t.Errorf("FractionBy(max) = %v", f)
	}
	var empty CDF
	if empty.Quantile(0.5) != 0 || empty.FractionBy(time.Second) != 0 {
		t.Error("empty CDF should return zeros")
	}
}

// TestCDFQuantileNearestRank pins the nearest-rank definition against
// hand-computed cases. The old float-index truncation agreed with
// nearest-rank at low quantiles but underestimated the tail: p99 of 10
// samples must be the maximum, not the 9th-ranked sample.
func TestCDFQuantileNearestRank(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	tenUp := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} // insertion order is irrelevant
	cases := []struct {
		name    string
		samples []int
		q       float64
		want    time.Duration
	}{
		{"p99 of 10 is the max", tenUp, 0.99, ms(10)},
		{"p90 of 10 is the 9th", tenUp, 0.90, ms(9)},
		{"p91 of 10 rounds up to the max", tenUp, 0.91, ms(10)},
		{"p50 of 10 is the 5th", tenUp, 0.50, ms(5)},
		{"p100 is the max", tenUp, 1.0, ms(10)},
		{"p0 clamps to the min", tenUp, 0.0, ms(1)},
		{"single sample, any q", []int{7}, 0.5, ms(7)},
		{"p50 of 2 is the lower", []int{3, 9}, 0.5, ms(3)},
		{"p51 of 2 is the upper", []int{3, 9}, 0.51, ms(9)},
		{"unsorted input is sorted first", []int{9, 1, 5}, 1.0 / 3.0, ms(1)},
	}
	for _, tc := range cases {
		c := &CDF{}
		for _, v := range tc.samples {
			c.Add(ms(v))
		}
		if got := c.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%g) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// TestEngineTotalsAreTheRegistryCounters: the totals have no store of their
// own — a reading after EngineAccumulate(d) minus one before is d, and it is
// the same delta the sbx_engine_*_total registry counters show.
func TestEngineTotalsAreTheRegistryCounters(t *testing.T) {
	registry := func() EngineStats {
		v := func(name string) int64 { return obs.Default().CounterValue("sbx_engine_" + name + "_total") }
		return EngineStats{
			IndexProbes: v("index_probes"), LeadingScans: v("leading_scans"),
			FullScanFallbacks: v("fullscan_fallbacks"), FixpointRounds: v("fixpoint_rounds"),
			TuplesScanned: v("tuples_scanned"),
		}
	}
	d := EngineStats{IndexProbes: 2, LeadingScans: 4, FullScanFallbacks: 1, FixpointRounds: 3, TuplesScanned: 17}
	before, regBefore := EngineTotals(), registry()
	EngineAccumulate(d)
	if got := EngineTotals().Sub(before); got != d {
		t.Errorf("EngineTotals delta = %+v, want %+v", got, d)
	}
	if got := registry().Sub(regBefore); got != d {
		t.Errorf("registry counter delta = %+v, want %+v", got, d)
	}
}

func TestEngineStatsArithmeticAndAccumulation(t *testing.T) {
	a := EngineStats{IndexProbes: 10, LeadingScans: 4, FullScanFallbacks: 1, FixpointRounds: 3}
	b := EngineStats{IndexProbes: 7, LeadingScans: 4, FixpointRounds: 2}
	d := a.Sub(b)
	if d != (EngineStats{IndexProbes: 3, FullScanFallbacks: 1, FixpointRounds: 1}) {
		t.Errorf("Sub: %+v", d)
	}

	before := EngineTotals()
	EngineAccumulate(EngineStats{IndexProbes: 5, FixpointRounds: 2})
	EngineAccumulate(EngineStats{IndexProbes: 1, LeadingScans: 3})
	delta := EngineTotals().Sub(before)
	want := EngineStats{IndexProbes: 6, LeadingScans: 3, FixpointRounds: 2}
	if delta != want {
		t.Errorf("accumulated delta %+v, want %+v", delta, want)
	}
	if s := delta.String(); !strings.Contains(s, "probes=6") || !strings.Contains(s, "rounds=2") {
		t.Errorf("String(): %s", s)
	}
}

// Package metrics collects the measurements the paper's evaluation reports:
// per-node communication overhead, transaction durations, convergence times
// and their cumulative distributions (Figures 4–12).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"secureblox/internal/obs"
)

// NodeMetrics is one node's runtime measurements. Every count is a child
// of the node's principal-labelled series in the obs registry: one Add
// serves the node's exact reading here and the cumulative family on
// /metrics, which keeps what earlier nodes of the same principal added
// (clusters are rebuilt in one process). The timestamps behind the paper's
// exact CDFs (Figures 8–11) have no registry form and stay on the node.
type NodeMetrics struct {
	msgsSent, bytesSent *obs.Counter
	msgsRecv, bytesRecv *obs.Counter
	msgsProcessed       *obs.Counter
	violations          *obs.Counter
	txns                *obs.Counter   // the registered series: this node's count is len(completions)
	txnSeconds          *obs.Histogram // likewise registered: this node's total is txnTotal

	lastActivity atomic.Int64 // time of the last transaction or violation as an offset from epoch, 0 before the first

	mu          sync.Mutex
	txnTotal    time.Duration
	completions []time.Time
}

// epoch anchors NodeMetrics.lastActivity: an offset from it fits one atomic
// word and converts back to a time.Time that keeps its monotonic reading.
var epoch = time.Now()

// NewNodeMetrics returns metrics that roll up into the default obs
// registry under the owning node's principal label.
func NewNodeMetrics(principal string) *NodeMetrics {
	l := obs.Labels{"principal": principal}
	r := obs.Default()
	r.Help("sbx_msgs_sent_total", "Application messages shipped to peers.")
	r.Help("sbx_bytes_sent_total", "Application bytes shipped to peers.")
	r.Help("sbx_msgs_recv_total", "Application messages received from peers.")
	r.Help("sbx_bytes_recv_total", "Application bytes received from peers.")
	r.Help("sbx_msgs_processed_total", "Inbound datagrams consumed by the transaction loop (malformed included).")
	r.Help("sbx_txns_total", "Committed workspace transactions.")
	r.Help("sbx_violations_total", "Rejected (rolled-back) batches.")
	r.Help("sbx_txn_duration_seconds", "Local transaction duration (paper Figure 7).")
	return &NodeMetrics{
		msgsSent:      r.Counter("sbx_msgs_sent_total", l).Child(),
		bytesSent:     r.Counter("sbx_bytes_sent_total", l).Child(),
		msgsRecv:      r.Counter("sbx_msgs_recv_total", l).Child(),
		bytesRecv:     r.Counter("sbx_bytes_recv_total", l).Child(),
		msgsProcessed: r.Counter("sbx_msgs_processed_total", l).Child(),
		violations:    r.Counter("sbx_violations_total", l).Child(),
		txns:          r.Counter("sbx_txns_total", l),
		txnSeconds:    r.Histogram("sbx_txn_duration_seconds", l, nil),
	}
}

// Traffic is one node's application-level traffic: the encoded bytes and
// message counts of export batches it shipped and received. Runtime control
// traffic (termination probes, transport-level acks and retransmissions) is
// deliberately excluded, so these are the paper's per-node communication
// overhead numbers regardless of transport.
type Traffic struct {
	MsgsSent  int64
	BytesSent int64
	MsgsRecv  int64
	BytesRecv int64
}

// RecordSent adds one shipped application message of the given size.
func (m *NodeMetrics) RecordSent(bytes int) {
	m.msgsSent.Inc()
	m.bytesSent.Add(int64(bytes))
}

// RecordRecv adds one received application message of the given size.
func (m *NodeMetrics) RecordRecv(bytes int) {
	m.msgsRecv.Inc()
	m.bytesRecv.Add(int64(bytes))
}

// Traffic returns the application-level traffic counters. The four loads
// are not one snapshot; readers that compare them take them at quiescence.
func (m *NodeMetrics) Traffic() Traffic {
	return Traffic{
		MsgsSent:  m.msgsSent.Value(),
		BytesSent: m.bytesSent.Value(),
		MsgsRecv:  m.msgsRecv.Value(),
		BytesRecv: m.bytesRecv.Value(),
	}
}

// RecordMsgProcessed counts one inbound datagram fully consumed by the
// transaction loop (including malformed ones that were dropped).
func (m *NodeMetrics) RecordMsgProcessed() { m.msgsProcessed.Inc() }

// MsgsProcessed returns how many inbound datagrams the loop has consumed —
// tests use it to wait for out-of-band injections to be handled.
func (m *NodeMetrics) MsgsProcessed() int64 { return m.msgsProcessed.Value() }

// RecordTxn adds one transaction's duration.
func (m *NodeMetrics) RecordTxn(d time.Duration) {
	now := time.Now()
	m.mu.Lock()
	m.txnTotal += d
	m.completions = append(m.completions, now)
	m.mu.Unlock()
	m.lastActivity.Store(int64(now.Sub(epoch)))
	m.txns.Inc()
	m.txnSeconds.Observe(d.Seconds())
}

// TxnCompletions returns the completion timestamps of every transaction,
// the basis of the paper's Figures 10 and 11.
func (m *NodeMetrics) TxnCompletions() []time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]time.Time(nil), m.completions...)
}

// RecordViolation counts a rejected (rolled-back) batch.
func (m *NodeMetrics) RecordViolation() {
	m.violations.Inc()
	m.lastActivity.Store(int64(time.Since(epoch)))
}

// TxnStats returns the transaction count and mean duration.
func (m *NodeMetrics) TxnStats() (count int64, mean time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.completions) == 0 {
		return 0, 0
	}
	count = int64(len(m.completions))
	return count, m.txnTotal / time.Duration(count)
}

// Violations returns the rejected-batch count.
func (m *NodeMetrics) Violations() int64 { return m.violations.Value() }

// LastActivity returns the time of the node's last transaction — the
// moment it "converged" if nothing arrives afterwards (paper §8:
// "cumulative fraction of converged nodes"). Zero before the first.
func (m *NodeMetrics) LastActivity() time.Time {
	if d := m.lastActivity.Load(); d != 0 {
		return epoch.Add(time.Duration(d))
	}
	return time.Time{}
}

// EngineStats counts local-evaluator events: how join steps were answered
// (index probe vs. relation scan) and how many semi-naïve rounds fixpoints
// took. LeadingScans are full iterations where no column was bound — the
// outermost loop of a join plan (the delta loop of a semi-naïve evaluation
// included), inherent to evaluation. FullScanFallbacks are scans forced
// despite bound columns (a missing or unusable index); a regression in join
// planning shows up here as a nonzero count. TuplesScanned is the work all of
// them did: per transaction it must track the delta, not the stored relations.
type EngineStats struct {
	IndexProbes       int64 // probes answered by a hash index (functional, secondary, or full-tuple)
	LeadingScans      int64 // full scans with no bound column (legitimate outer loops)
	FullScanFallbacks int64 // scans despite bound columns — should stay 0
	FixpointRounds    int64 // semi-naïve rounds across all fixpoints
	TuplesScanned     int64 // tuples, stored or delta, handed to unification by a match step
}

// Sub returns s - o, component-wise (for before/after deltas).
func (s EngineStats) Sub(o EngineStats) EngineStats {
	return EngineStats{
		IndexProbes:       s.IndexProbes - o.IndexProbes,
		LeadingScans:      s.LeadingScans - o.LeadingScans,
		FullScanFallbacks: s.FullScanFallbacks - o.FullScanFallbacks,
		FixpointRounds:    s.FixpointRounds - o.FixpointRounds,
		TuplesScanned:     s.TuplesScanned - o.TuplesScanned,
	}
}

// String renders the counters compactly for benchmark logs.
func (s EngineStats) String() string {
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

// EngineAccumulate folds one workspace's counter delta into the
// process-wide totals. Workspaces publish after each transaction, so a
// cluster benchmark can observe every node's evaluator behaviour without
// reaching into the nodes.
func EngineAccumulate(d EngineStats) {
	cIndexProbes.Add(d.IndexProbes)
	cLeadingScans.Add(d.LeadingScans)
	cFullScanFallbacks.Add(d.FullScanFallbacks)
	cFixpointRounds.Add(d.FixpointRounds)
	cTuplesScanned.Add(d.TuplesScanned)
}

// EngineTotals returns the process-wide evaluator counters. They are
// cumulative (Prometheus semantics): a run's share is the difference of
// two readings (EngineStats.Sub). The five loads are not one snapshot;
// readers take them while no transaction is running.
func EngineTotals() EngineStats {
	return EngineStats{
		IndexProbes:       cIndexProbes.Value(),
		LeadingScans:      cLeadingScans.Value(),
		FullScanFallbacks: cFullScanFallbacks.Value(),
		FixpointRounds:    cFixpointRounds.Value(),
		TuplesScanned:     cTuplesScanned.Value(),
	}
}

// CDF is an empirical cumulative distribution over durations.
type CDF struct {
	samples []time.Duration
}

// Add inserts a sample.
func (c *CDF) Add(d time.Duration) { c.samples = append(c.samples, d) }

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.samples) }

// Points returns sorted (duration, cumulative fraction) pairs.
func (c *CDF) Points() []CDFPoint {
	s := append([]time.Duration(nil), c.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := make([]CDFPoint, len(s))
	for i, d := range s {
		out[i] = CDFPoint{At: d, Fraction: float64(i+1) / float64(len(s))}
	}
	return out
}

// FractionBy returns the fraction of samples at or below d.
func (c *CDF) FractionBy(d time.Duration) float64 {
	if len(c.samples) == 0 {
		return 0
	}
	n := 0
	for _, s := range c.samples {
		if s <= d {
			n++
		}
	}
	return float64(n) / float64(len(c.samples))
}

// Quantile returns the q-quantile (0 <= q <= 1) of the samples using the
// nearest-rank definition: the smallest sample such that at least a q
// fraction of the distribution is at or below it. (The previous
// float-index truncation underestimated upper quantiles at small sample
// counts — p99 of 10 samples returned the 9th-ranked sample instead of
// the maximum.)
func (c *CDF) Quantile(q float64) time.Duration {
	if len(c.samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), c.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	At       time.Duration
	Fraction float64
}

// Package metrics collects the measurements the paper's evaluation reports:
// per-node communication overhead, transaction durations, convergence times
// and their cumulative distributions (Figures 4–12).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"secureblox/internal/obs"
)

// NodeMetrics accumulates one node's runtime measurements. A zero value
// works standalone; NewNodeMetrics additionally mirrors every count into
// the process-wide obs registry under a principal label, which is how the
// /metrics endpoint sees per-node behaviour without reaching into nodes.
type NodeMetrics struct {
	mu           sync.Mutex
	txnCount     int64
	txnTotal     time.Duration
	completions  []time.Time
	violations   int64
	lastActivity time.Time
	traffic      Traffic
	msgsIn       int64

	// obs registry mirrors (nil on a zero-value NodeMetrics).
	cMsgsSent, cBytesSent *obs.Counter
	cMsgsRecv, cBytesRecv *obs.Counter
	cMsgsProcessed        *obs.Counter
	cTxns, cViolations    *obs.Counter
	hTxn                  *obs.Histogram
}

// NewNodeMetrics returns metrics that also report into the default obs
// registry, labeled with the owning node's principal.
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
		cMsgsSent:      r.Counter("sbx_msgs_sent_total", l),
		cBytesSent:     r.Counter("sbx_bytes_sent_total", l),
		cMsgsRecv:      r.Counter("sbx_msgs_recv_total", l),
		cBytesRecv:     r.Counter("sbx_bytes_recv_total", l),
		cMsgsProcessed: r.Counter("sbx_msgs_processed_total", l),
		cTxns:          r.Counter("sbx_txns_total", l),
		cViolations:    r.Counter("sbx_violations_total", l),
		hTxn:           r.Histogram("sbx_txn_duration_seconds", l, nil),
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
	m.mu.Lock()
	m.traffic.MsgsSent++
	m.traffic.BytesSent += int64(bytes)
	m.mu.Unlock()
	if m.cMsgsSent != nil {
		m.cMsgsSent.Inc()
		m.cBytesSent.Add(int64(bytes))
	}
}

// RecordRecv adds one received application message of the given size.
func (m *NodeMetrics) RecordRecv(bytes int) {
	m.mu.Lock()
	m.traffic.MsgsRecv++
	m.traffic.BytesRecv += int64(bytes)
	m.mu.Unlock()
	if m.cMsgsRecv != nil {
		m.cMsgsRecv.Inc()
		m.cBytesRecv.Add(int64(bytes))
	}
}

// Traffic returns the application-level traffic counters.
func (m *NodeMetrics) Traffic() Traffic {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.traffic
}

// RecordMsgProcessed counts one inbound datagram fully consumed by the
// transaction loop (including malformed ones that were dropped).
func (m *NodeMetrics) RecordMsgProcessed() {
	m.mu.Lock()
	m.msgsIn++
	m.mu.Unlock()
	if m.cMsgsProcessed != nil {
		m.cMsgsProcessed.Inc()
	}
}

// MsgsProcessed returns how many inbound datagrams the loop has consumed —
// tests use it to wait for out-of-band injections to be handled.
func (m *NodeMetrics) MsgsProcessed() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.msgsIn
}

// RecordTxn adds one transaction's duration.
func (m *NodeMetrics) RecordTxn(d time.Duration) {
	m.mu.Lock()
	m.txnCount++
	m.txnTotal += d
	m.lastActivity = time.Now()
	m.completions = append(m.completions, m.lastActivity)
	m.mu.Unlock()
	if m.cTxns != nil {
		m.cTxns.Inc()
		m.hTxn.Observe(d.Seconds())
	}
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
	m.mu.Lock()
	m.violations++
	m.lastActivity = time.Now()
	m.mu.Unlock()
	if m.cViolations != nil {
		m.cViolations.Inc()
	}
}

// TxnStats returns the transaction count and mean duration.
func (m *NodeMetrics) TxnStats() (count int64, mean time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.txnCount == 0 {
		return 0, 0
	}
	return m.txnCount, m.txnTotal / time.Duration(m.txnCount)
}

// Violations returns the rejected-batch count.
func (m *NodeMetrics) Violations() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.violations
}

// LastActivity returns the time of the node's last transaction — the
// moment it "converged" if nothing arrives afterwards (paper §8:
// "cumulative fraction of converged nodes").
func (m *NodeMetrics) LastActivity() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastActivity
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

// Series is one labelled line of a figure: x values (e.g. node counts)
// mapped to measurements.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Table formats one or more series that share X values as the rows the
// paper's figures plot, e.g.:
//
//	nodes  NoAuth  HMAC  RSA
//	6      0.8     1.0   1.9
func Table(xName string, series ...Series) string {
	var sb strings.Builder
	sb.WriteString(xName)
	for _, s := range series {
		sb.WriteString("\t" + s.Label)
	}
	sb.WriteByte('\n')
	if len(series) == 0 {
		return sb.String()
	}
	for i := range series[0].X {
		fmt.Fprintf(&sb, "%g", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(&sb, "\t%.3f", s.Y[i])
			} else {
				sb.WriteString("\t-")
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

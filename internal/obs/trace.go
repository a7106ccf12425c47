package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"
)

// Pipeline stage names, in causal order through one node. Policy
// constraint checks (signature verification, write-access sweeps) run
// inside the workspace transaction, so their cost is part of the
// StageFixpoint span, and no span is ever a StageVerify one: the name is kept
// for the benchmark reports, whose verify column reads zero.
const (
	StageDecode   = "decode"   // wire decode of an inbound datagram
	StageVerify   = "verify"   // recorded by no stage: verification is inside StageFixpoint
	StageFixpoint = "fixpoint" // workspace transaction incl. policy checks
	StageSign     = "sign"     // batch-envelope group signature, made on the loop
	StageShip     = "ship"     // datagram handed to the transport
)

// Span is one timed pipeline stage of a derivation wave at one node. The
// wave's trace ID is stamped on every outbound batch envelope and
// propagated from the inbound batch that triggered the deriving
// transaction, so spans recorded independently on every node of a cluster
// reassemble into the wave's causal tree (see BuildWave).
type Span struct {
	// Trace identifies the derivation wave (unique per originating
	// transaction, process-wide random base so separate OS processes
	// cannot collide).
	Trace uint64 `json:"trace"`
	// Hop is the wave's distance from its originating transaction: 0 at
	// the node that asserted the base facts, h+1 after shipping from hop h.
	Hop int `json:"hop"`
	// Node is the recording node's transport address (the cluster-wide
	// identity peers address it by).
	Node string `json:"node"`
	// Principal is the recording node's principal, for display.
	Principal string `json:"principal,omitempty"`
	// Stage is one of the Stage* constants.
	Stage string `json:"stage"`
	// Peer is the transport address on the other side of this stage:
	// the sender for inbound stages, the destination for outbound ones.
	// Empty for locally originated work.
	Peer string `json:"peer,omitempty"`
	// Start is when the stage began.
	Start time.Time `json:"start"`
	// Dur is how long the stage took.
	Dur time.Duration `json:"dur_ns"`
	// Absorbed, on a fixpoint span, is how many units of work — inbound
	// datagrams, or locally asserted batches — the transaction merged, when
	// more than one. The span carries the first one's trace.
	Absorbed int `json:"absorbed,omitempty"`
	// Into, on the decode span of a datagram a merged transaction absorbed
	// behind another, is the trace that transaction ran (and shipped) under:
	// where this wave continues.
	Into uint64 `json:"into,omitempty"`
}

// traceBase randomizes the high half of trace IDs per process so the IDs
// minted by different OS processes of one cluster cannot collide; the low
// half is a process-local sequence.
var (
	traceBase uint64
	traceSeq  atomic.Uint64
	baseOnce  sync.Once
)

// NewTraceID mints a process-unique wave identifier (never 0 — a zero
// trace on the wire means "untraced").
func NewTraceID() uint64 {
	baseOnce.Do(func() {
		var b [8]byte
		if _, err := crand.Read(b[:]); err == nil {
			traceBase = binary.LittleEndian.Uint64(b[:]) &^ 0xFFFFFFFF
		}
	})
	id := traceBase | (traceSeq.Add(1) & 0xFFFFFFFF)
	if id == 0 {
		id = 1
	}
	return id
}

// defaultSpanCap bounds the process-global span ring. At ~120 bytes per
// span this caps tracing memory near 2 MB regardless of how many fixpoints
// one process runs; older waves are overwritten by newer ones. SetSpanCap
// overrides it.
const defaultSpanCap = 16384

// spans is the process-global span store: one bounded ring all nodes of the
// process record into. In multi-process deployments each process's ring is
// that node's span dump; in-process clusters share one ring and filter by
// Span.Node. Overwrites mirror into sbx_spans_dropped_total: nonzero means
// traces were silently lost between scrapes and the ring (or the scrape
// interval) is too small for the workload.
var spans = ring[Span]{size: defaultSpanCap}

func init() {
	r := Default()
	r.Help("sbx_spans_dropped_total", "Trace spans overwritten in the bounded ring before being read.")
	spans.dropped = r.Counter("sbx_spans_dropped_total", nil)
}

// SetSpanCap resizes the span ring capacity (and clears it). Values < 1
// restore the default. Meant for process startup; racing recorders lose
// whatever they recorded before the resize.
func SetSpanCap(n int) {
	if n < 1 {
		n = defaultSpanCap
	}
	spans.reset(n)
}

// RecordSpan appends one span to the process-global ring.
func RecordSpan(s Span) {
	spans.mu.Lock()
	spans.pushLocked(s)
	spans.mu.Unlock()
}

// Spans returns the ring's current contents in recording order (oldest
// first).
func Spans() []Span { return spans.items() }

// ResetSpans clears the ring (tests and benchmark iterations).
func ResetSpans() { spans.reset(0) }

// SpanDrops reports how many spans were overwritten before being read —
// nonzero means the ring was too small for the workload between scrapes.
func SpanDrops() int64 { return spans.dropCount() }

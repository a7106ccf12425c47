package dist

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/obs"
	"secureblox/internal/transport"
	"secureblox/internal/wire"
)

// Node is one SecureBlox instance: a principal identity, the workspace
// holding its database and compiled program, and a transport endpoint. Its
// transaction loop (Start) applies queued local assertions and inbound wire
// messages as workspace transactions and ships newly derived export tuples.
type Node struct {
	// Principal is the identity this node runs as (the value of self[]).
	Principal string
	// WS is the node's workspace. It must already have the compiled
	// program installed; the loop is its only writer once Start is called.
	WS *engine.Workspace
	// PreVerify, if set, is called for every inbound data message before
	// the transaction loop processes it, with the decoded wire message
	// (claimed source address, batch signature if any, opaque payloads).
	// The cluster driver uses it to warm a signature-verification worker
	// pool while earlier transactions are still committing; it must be
	// cheap and must not block.
	PreVerify func(msg wire.Message)
	// SignBatch, if set before Start, switches outbound shipping to batch
	// envelopes (paper footnote 2): instead of relying on per-tuple
	// signatures inside the payloads, every datagram a transaction ships is
	// covered by the one signature this hook returns over the group root of
	// their payload digests (wire.GroupRoot; one call per group of at most
	// wire.MaxGroup datagrams), and sends run in an asynchronous pipeline
	// stage that overlaps signing with the next transaction. The cluster
	// driver binds it to a signing worker pool over the node's private key.
	SignBatch func(root []byte) ([]byte, error)
	// WarmSignBatch, if set alongside SignBatch, is called with each
	// group's root as the group is queued, so the signature is usually
	// computed by the time the sender stage needs it. It must be cheap and
	// must not block.
	WarmSignBatch func(root []byte)
	// OnControl, if set before Start, receives the payload of every
	// MsgControl datagram that is not a termination-detection record,
	// with the transport-level sender address. The cluster runtime uses it
	// to run its departure barrier over the node's own endpoint while the
	// transaction loop owns the receive channel. It runs on the loop
	// goroutine and must not block.
	OnControl func(from string, payload []byte)
	// Backlog, if set before Start, holds datagrams taken off the endpoint
	// before the loop owned it (cluster.Runtime.EarlyTraffic); they are the
	// head of the loop's first inbound batch, as if they had just arrived.
	Backlog []transport.InMsg

	ep transport.Transport

	mu         sync.Mutex
	pending    []batch
	violations []error
	failed     []datalog.Tuple // export tuples of failed sends, awaiting reclamation
	stopped    bool

	wake   chan struct{}
	stopCh chan struct{}
	wg     sync.WaitGroup

	startOnce sync.Once
	stopOnce  sync.Once

	// Termination-detection state: monotone counts of application messages
	// exchanged with cluster peers, one cell per peer so a detector can
	// restrict its wave sums to the surviving membership after an eviction.
	// Cells are created lazily under ctrMu; recv is written only by the
	// loop goroutine, sent also by the outbound sender stage in
	// batch-signing mode, and both are read by external inspectors — hence
	// atomics. peers is fixed before Start.
	peers   map[string]bool
	ctrMu   sync.Mutex
	perPeer map[string]*peerCtr

	// evictQ holds eviction requests (peer transport addresses) queued by
	// Evict for the loop goroutine, under mu; evicted is the loop-owned
	// set of peers already cut off.
	evictQ  []string
	evicted map[string]bool

	// Loop-goroutine-only state (no locking needed).
	sent     *engine.Relation // export(N, L, Pkt) tuples already shipped, in the workspace's store
	selfAddr string           // cached principal_node[self] address

	sentSize atomic.Int64 // mirror of sent.Len() for external inspection

	// Outbound pipeline state (batch-signing mode only). outCh carries
	// chunks from the loop to the sender stage; outPending counts chunks
	// queued but not yet on the wire, and is folded into the node's
	// activity report so termination detection cannot conclude while a
	// send is still in flight.
	outCh      chan outChunk
	outPending atomic.Int64

	// Wave-trace context of the unit of work the loop is currently
	// applying (loop-goroutine only): the trace ID and hop distance any
	// chunk the unit ships is stamped with, and the peer whose message
	// triggered it (empty for locally asserted work).
	curTrace uint64
	curHop   uint32
	curPeer  string

	// intakeDepth counts envelopes the intake stage has decoded and the loop
	// has not yet applied — the pre-verify backlog gauge.
	intakeDepth atomic.Int64

	// The inbound run being applied (loop-goroutine only, reused across
	// runs): the export/export_batch facts of every admitted datagram in
	// arrival order, and per datagram where its facts end.
	runFacts []engine.Fact
	runMsgs  []runMsg
	runEnds  []int

	runSizes     *obs.Histogram // datagrams per inbound transaction
	runFallbacks *obs.Counter   // merged inbound transactions rejected and replayed per datagram
	groupSizes   *obs.Histogram // envelopes covered per batch signature

	// The node's counts for the evaluation figures, each a child of its
	// principal's series in the obs registry: one Add serves both the node's
	// exact reading (MsgsSent and the rest) and the family on /metrics, which
	// keeps what earlier nodes of the same principal added (clusters are
	// rebuilt in one process). Application traffic only: termination probes
	// and transport-level acks and retransmissions are not counted, so the
	// numbers are the paper's per-node overhead whatever the transport.
	msgsSent, bytesSent *obs.Counter
	msgsRecv, bytesRecv *obs.Counter
	txns                *obs.Counter
	// rejected and txnSeconds are the principal's series themselves: the
	// node's own readings are len(Violations()) and txnTime.
	rejected     *obs.Counter
	txnSeconds   *obs.Histogram
	txnTime      atomic.Int64 // summed duration of the node's committed transactions, ns
	lastActivity atomic.Int64 // last commit or violation as an offset from epoch, 0 before the first

	// busy is set by the loop goroutine around each unit of work
	// (drainLocal run or inbound message). Drain needs it: a batch that
	// was popped from pending but is still mid-commit is otherwise
	// invisible (pending empty, its dispatches not yet counted in
	// outPending), and Drain returning during that window would let Stop
	// discard the commit's exports.
	busy atomic.Bool
}

// batch is one queued unit of local work: a transaction's base facts,
// either asserted or retracted.
type batch struct {
	facts   []engine.Fact
	retract bool
}

// NewNode builds a node over an installed workspace and an open endpoint.
// The node takes ownership of the endpoint: Stop closes it.
func NewNode(principal string, ws *engine.Workspace, ep transport.Transport) *Node {
	n := &Node{
		Principal: principal,
		WS:        ws,
		ep:        ep,
		wake:      make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		sent:      ws.NewTupleSet(3),
		perPeer:   make(map[string]*peerCtr),
		evicted:   make(map[string]bool),
	}
	// Internal pipeline state, scraped as gauges. Re-registering the same
	// principal replaces the function, so rebuilding clusters in one
	// process always scrapes the newest node.
	l := obs.Labels{"principal": principal}
	r := obs.Default()
	r.Help("sbx_sent_set_size", "Live size of the export dedup set.")
	r.Help("sbx_outbound_pending_chunks", "Chunks queued in the sign-and-send stage, not yet on the wire.")
	r.Help("sbx_preverify_backlog", "Datagrams decoded by the intake stage, not yet applied.")
	r.Help("sbx_inbound_run_messages", "Datagrams committed per inbound transaction.")
	r.Help("sbx_inbound_run_fallbacks_total", "Merged inbound transactions rejected and replayed one datagram at a time.")
	r.Help("sbx_batch_group_envelopes", "Batch envelopes covered per signature.")
	r.Help("sbx_msgs_sent_total", "Application messages shipped to peers.")
	r.Help("sbx_bytes_sent_total", "Application bytes shipped to peers.")
	r.Help("sbx_msgs_recv_total", "Application messages received from peers.")
	r.Help("sbx_bytes_recv_total", "Application bytes received from peers.")
	r.Help("sbx_txns_total", "Committed workspace transactions.")
	r.Help("sbx_violations_total", "Rejected (rolled-back) batches.")
	r.Help("sbx_txn_duration_seconds", "Local transaction duration (paper Figure 7).")
	n.msgsSent = r.Counter("sbx_msgs_sent_total", l).Child()
	n.bytesSent = r.Counter("sbx_bytes_sent_total", l).Child()
	n.msgsRecv = r.Counter("sbx_msgs_recv_total", l).Child()
	n.bytesRecv = r.Counter("sbx_bytes_recv_total", l).Child()
	n.txns = r.Counter("sbx_txns_total", l).Child()
	n.rejected = r.Counter("sbx_violations_total", l)
	n.txnSeconds = r.Histogram("sbx_txn_duration_seconds", l, nil)
	n.runSizes = r.Histogram("sbx_inbound_run_messages", l, runSizeBuckets)
	n.runFallbacks = r.Counter("sbx_inbound_run_fallbacks_total", l)
	n.groupSizes = r.Histogram("sbx_batch_group_envelopes", l, groupSizeBuckets)
	r.GaugeFunc("sbx_sent_set_size", l, func() float64 { return float64(n.sentSize.Load()) })
	r.GaugeFunc("sbx_outbound_pending_chunks", l, func() float64 { return float64(n.outPending.Load()) })
	r.GaugeFunc("sbx_preverify_backlog", l, func() float64 { return float64(n.intakeDepth.Load()) })
	return n
}

// SetPeers fixes the cluster membership this node's termination counters
// cover: only application messages to and from these transport addresses
// are counted, so traffic injected by out-of-band endpoints (which has no
// counted sender) cannot wedge detection. It must be called before Start.
// With no peer set, every address counts.
func (n *Node) SetPeers(addrs []string) {
	n.peers = make(map[string]bool, len(addrs))
	for _, a := range addrs {
		n.peers[a] = true
	}
}

// countsPeer reports whether traffic with addr participates in the
// termination counters.
func (n *Node) countsPeer(addr string) bool {
	return n.peers == nil || n.peers[addr]
}

// peerCtr is the termination counters against one peer.
type peerCtr struct {
	sent, recv atomic.Uint64
}

// peerCtrFor returns the per-peer counter cell for addr, creating it on
// first contact. Safe from any goroutine.
func (n *Node) peerCtrFor(addr string) *peerCtr {
	n.ctrMu.Lock()
	c := n.perPeer[addr]
	if c == nil {
		c = &peerCtr{}
		n.perPeer[addr] = c
	}
	n.ctrMu.Unlock()
	return c
}

// peerCounts snapshots the termination counters, sorted by address for
// deterministic reports.
func (n *Node) peerCounts() []wire.PeerCount {
	n.ctrMu.Lock()
	out := make([]wire.PeerCount, 0, len(n.perPeer))
	for addr, c := range n.perPeer {
		out = append(out, wire.PeerCount{Addr: addr, Sent: c.sent.Load(), Recv: c.recv.Load()})
	}
	n.ctrMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Evict cuts one or more cluster peers off: no further messages are
// shipped to or accepted from their addresses, the export dedup set is
// pruned of tuples addressed to them, and the endpoint's reliable layer
// forgets their pending frames and dedup state. Callable from any
// goroutine; the loop goroutine applies the eviction between units of
// work. The per-peer counters are retained — the detector needs them to
// subtract the dead pairs from its wave sums.
func (n *Node) Evict(addrs ...string) {
	if len(addrs) == 0 {
		return
	}
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.evictQ = append(n.evictQ, addrs...)
	n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// applyEvictions applies queued evictions on the loop goroutine, which
// owns the evicted set and the sent-set it prunes.
func (n *Node) applyEvictions() {
	n.mu.Lock()
	q := n.evictQ
	n.evictQ = nil
	n.mu.Unlock()
	if len(q) == 0 {
		return
	}
	fresh := false
	for _, addr := range q {
		if n.evicted[addr] {
			continue
		}
		n.evicted[addr] = true
		fresh = true
		obs.L().With(n.Principal).Info("peer cut off", "peer", addr)
		if f, ok := n.ep.(interface{ Forget(string) int }); ok {
			f.Forget(addr)
		}
	}
	if !fresh {
		return
	}
	// Prune dedup entries for tuples addressed to the dead peers: ship
	// skips evicted destinations, so keeping them would only hold memory for
	// sends that can never happen.
	for _, t := range n.sent.Tuples() {
		if n.evicted[t[0].Str] {
			n.sent.Delete(t)
		}
	}
	n.sentSize.Store(int64(n.sent.Len()))
}

// Counters returns the node's termination-detection counters summed over
// its peers: cumulative application messages shipped to and processed from
// cluster peers.
func (n *Node) Counters() (sent, recv uint64) {
	n.ctrMu.Lock()
	defer n.ctrMu.Unlock()
	for _, c := range n.perPeer {
		sent += c.sent.Load()
		recv += c.recv.Load()
	}
	return sent, recv
}

// SentSetSize returns the current size of the export-dedup set — the
// retraction-aware pruning keeps it proportional to the live export extent
// rather than to everything ever shipped.
func (n *Node) SentSetSize() int { return int(n.sentSize.Load()) }

// epoch anchors Node.lastActivity: an offset from it fits one atomic word and
// converts back to a time.Time that keeps its monotonic reading.
var epoch = time.Now()

// MsgsSent returns how many application messages the node has shipped.
func (n *Node) MsgsSent() int64 { return n.msgsSent.Value() }

// BytesSent returns the encoded size of the application messages the node has
// shipped.
func (n *Node) BytesSent() int64 { return n.bytesSent.Value() }

// MsgsRecv returns how many inbound data datagrams the transaction loop has
// taken in, malformed ones included; tests wait on it for out-of-band
// injections to be handled.
func (n *Node) MsgsRecv() int64 { return n.msgsRecv.Value() }

// BytesRecv returns the size of the inbound data datagrams the loop has taken
// in.
func (n *Node) BytesRecv() int64 { return n.bytesRecv.Value() }

// Txns returns how many workspace transactions the node has committed.
func (n *Node) Txns() int64 { return n.txns.Value() }

// TxnTime returns the summed duration of the node's committed transactions
// (paper Figure 7 is TxnTime / Txns).
func (n *Node) TxnTime() time.Duration { return time.Duration(n.txnTime.Load()) }

// LastActivity returns the time of the node's last commit or violation — the
// moment it "converged" if nothing arrives afterwards (paper §8: "cumulative
// fraction of converged nodes"). Zero before the first.
func (n *Node) LastActivity() time.Time {
	if d := n.lastActivity.Load(); d != 0 {
		return epoch.Add(time.Duration(d))
	}
	return time.Time{}
}

// Start launches the transaction loop — and, in batch-signing mode, the
// outbound sender stage. It is idempotent.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		if n.SignBatch != nil {
			n.outCh = make(chan outChunk, 64)
			n.wg.Add(1)
			go n.sender()
		}
		n.wg.Add(1)
		go n.run()
	})
}

// Drain blocks until the node holds no queued local work and no outbound
// chunk is still in the sign-and-send stage, or ctx is cancelled. It is
// the graceful half of leaving a cluster: Stop discards whatever is still
// queued, so a departing node that wants its last commits on the wire
// drains first, then stops. Drain does not prevent new work from arriving;
// callers stop asserting before draining.
func (n *Node) Drain(ctx context.Context) error {
	for {
		n.mu.Lock()
		idle := len(n.pending) == 0
		stopped := n.stopped
		n.mu.Unlock()
		if stopped {
			return nil // nothing left to drain; Stop already discarded it
		}
		// Order matters: pending was read under the mutex, so a batch the
		// loop already popped implies the loop set busy first (it takes
		// the same mutex to pop); and once busy clears, every dispatch of
		// that work is visible in outPending.
		if idle && !n.busy.Load() && n.outPending.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-n.stopCh:
			return nil
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Stop shuts the loop down, discards any still-queued work, and closes the
// endpoint. It is idempotent and returns once all node goroutines are gone.
// A stopped node no longer answers termination probes, so WaitFixpoint
// must not be called for a cluster with stopped members.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stopCh) })
	n.mu.Lock()
	n.stopped = true
	n.pending = nil
	n.mu.Unlock()
	n.wg.Wait()
	n.ep.Close()
}

// Assert enqueues a batch of base facts for the loop to apply as (part of)
// a local transaction. Asserting against a stopped node drops the batch.
func (n *Node) Assert(facts []engine.Fact) {
	n.enqueue(batch{facts: facts})
}

// Retract enqueues a batch of base facts for the loop to retract as one
// transaction. Derived data is maintained incrementally (DRed), and export
// tuples that are no longer derivable are pruned from the shipped-set, so
// a later re-derivation ships again. Retractions are local: no
// anti-message is sent for tuples already shipped.
func (n *Node) Retract(facts []engine.Fact) {
	n.enqueue(batch{facts: facts, retract: true})
}

func (n *Node) enqueue(b batch) {
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.pending = append(n.pending, b)
	n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// Violations returns the errors of all rejected (rolled-back) batches so
// far, local and inbound.
func (n *Node) Violations() []error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]error(nil), n.violations...)
}

// run is the per-node transaction loop of §5.2: drain local batches and
// inbound batches, apply each run of them as an ACID workspace transaction,
// and ship the export delta of successful commits. Termination probes arrive
// in the same stream as data and are answered in line between runs, which
// guarantees a probe reply is always a between-transactions snapshot.
func (n *Node) run() {
	defer n.wg.Done()
	// The loop is the only writer of the outbound pipeline, so its exit
	// closes the channel and winds the sender stage down.
	if n.outCh != nil {
		defer close(n.outCh)
	}
	inbound := n.intake()
	for {
		select {
		case <-n.stopCh:
			// Closing the endpoint ends the intake stage; take what it was
			// still offering so it can exit too.
			n.ep.Close()
			if inbound != nil {
				for envs := range inbound {
					n.intakeDepth.Add(-int64(len(envs)))
				}
			}
			return
		case <-n.wake:
			n.busy.Store(true)
			n.drainLocal()
			n.busy.Store(false)
		case envs, ok := <-inbound:
			if !ok {
				// Endpoint closed underneath us; serve local work until
				// Stop.
				inbound = nil
				continue
			}
			n.busy.Store(true)
			n.handleBatch(envs)
			n.busy.Store(false)
		}
	}
}

// drainLocal applies the queued local batches in order. Runs of same-kind
// batches are coalesced into one workspace transaction (batching amortizes
// fixpoint and constraint sweeps, paper footnote 2) — but if the merged
// transaction is rejected, each batch is retried in isolation so one bad
// batch cannot roll back unrelated valid ones.
func (n *Node) drainLocal() {
	n.applyEvictions()
	n.mu.Lock()
	batches := n.pending
	n.pending = nil
	n.mu.Unlock()
	for i := 0; i < len(batches); {
		j := i
		for j < len(batches) && batches[j].retract == batches[i].retract {
			j++
		}
		// Each run is a transaction that may originate a derivation wave:
		// mint a fresh trace at hop 0 with no triggering peer.
		n.curTrace, n.curHop, n.curPeer = obs.NewTraceID(), 0, ""
		if batches[i].retract {
			n.retractRun(batches[i:j])
		} else {
			n.commitRun(batches[i:j])
		}
		i = j
	}
}

// mergeFacts concatenates a run's batches into one fact slice.
func mergeFacts(run []batch) []engine.Fact {
	total := 0
	for _, b := range run {
		total += len(b.facts)
	}
	facts := make([]engine.Fact, 0, total)
	for _, b := range run {
		facts = append(facts, b.facts...)
	}
	return facts
}

// commitRun commits a run of local assertion batches, merged when possible.
func (n *Node) commitRun(run []batch) {
	if len(run) == 1 {
		n.commit(run[0].facts)
		return
	}
	ends := make([]int, len(run))
	total := 0
	for i, b := range run {
		total += len(b.facts)
		ends[i] = total
	}
	n.commitMerged(mergeFacts(run), ends, nil)
}

// commitMerged commits the parts of facts (part i ends at ends[i]) as one
// transaction and ships once. If the merged transaction is rejected, each
// part is committed on its own in order — enter(i), if set, runs before part
// i — so a bad part rolls back alone, is one recorded violation, and cannot
// veto the others. It reports whether the parts went in as one transaction.
func (n *Node) commitMerged(facts []engine.Fact, ends []int, enter func(part int)) bool {
	if len(ends) > 1 {
		start := time.Now()
		if res, err := n.WS.Assert(facts); err == nil {
			n.committed(start, len(ends))
			n.ship(res.Inserted("export"))
			return true
		}
	}
	lo := 0
	for i, hi := range ends {
		if enter != nil {
			enter(i)
		}
		n.commit(facts[lo:hi])
		lo = hi
	}
	return false
}

// commit runs one transaction over the workspace. On success the export
// delta is shipped; on rejection the violation is recorded (the workspace
// has already rolled the whole batch back).
func (n *Node) commit(facts []engine.Fact) {
	start := time.Now()
	res, err := n.WS.Assert(facts)
	if err != nil {
		n.recordViolation(err)
		return
	}
	n.committed(start, 1)
	n.ship(res.Inserted("export"))
}

// committed records one committed transaction that began at start: the
// node's transaction counts, and the fixpoint stage (the workspace
// transaction, policy checks included) as a span under the loop's current
// wave context; parts is how many batches or datagrams the transaction
// merged. Every commit goes through here, so the span ring holds exactly one
// fixpoint span per counted transaction.
func (n *Node) committed(start time.Time, parts int) {
	now := time.Now()
	d := now.Sub(start)
	n.txns.Inc()
	n.txnTime.Add(int64(d))
	n.txnSeconds.Observe(d.Seconds())
	n.lastActivity.Store(int64(now.Sub(epoch)))
	sp := obs.Span{
		Trace:     n.curTrace,
		Hop:       int(n.curHop),
		Node:      n.localAddr(),
		Principal: n.Principal,
		Stage:     obs.StageFixpoint,
		Peer:      n.curPeer,
		Start:     start,
		Dur:       d,
	}
	if parts > 1 {
		sp.Absorbed = parts
	}
	obs.RecordSpan(sp)
}

// retractRun retracts a run of batches, merged when possible (with the
// same per-batch isolation fallback as commitRun), then reconciles the
// export state once for the whole run.
func (n *Node) retractRun(run []batch) {
	applied := false
	if len(run) == 1 {
		applied = n.retractOnce(run[0].facts)
	} else {
		start := time.Now()
		if err := n.WS.Retract(mergeFacts(run)); err == nil {
			n.committed(start, len(run))
			applied = true
		} else {
			for _, b := range run {
				applied = n.retractOnce(b.facts) || applied
			}
		}
	}
	if applied {
		n.syncExports()
	}
}

// retractOnce removes one batch's base facts in a single transaction.
func (n *Node) retractOnce(facts []engine.Fact) bool {
	start := time.Now()
	if err := n.WS.Retract(facts); err != nil {
		n.recordViolation(err)
		return false
	}
	n.committed(start, 1)
	return true
}

// syncExports reconciles shipping state with the post-retraction export
// extent in one scan. Dedup entries whose tuple is no longer derivable are
// dropped, so the set tracks the live extent instead of growing without
// bound (ROADMAP follow-up). The live extent is then re-offered to ship:
// DRed rederivation through aggregates or negation can derive
// advertisements that did not exist before the retraction (e.g. losing
// the best route promotes the second-best), and ship's dedup sends
// exactly those while skipping everything already on the wire.
func (n *Node) syncExports() {
	for _, t := range n.sent.Tuples() {
		if !n.WS.Contains("export", t) {
			n.sent.Delete(t)
		}
	}
	n.sentSize.Store(int64(n.sent.Len()))
	n.ship(n.WS.Tuples("export"))
}

// recordViolation registers one rejected batch or dropped message.
func (n *Node) recordViolation(err error) {
	n.rejected.Inc()
	n.lastActivity.Store(int64(time.Since(epoch)))
	obs.L().With(n.Principal).Warn("constraint violation", "err", err.Error())
	n.mu.Lock()
	n.violations = append(n.violations, err)
	n.mu.Unlock()
}

// localAddr resolves (and caches) this node's own network address from the
// principal directory, falling back to the endpoint address before the
// directory is populated.
func (n *Node) localAddr() string {
	if n.selfAddr != "" {
		return n.selfAddr
	}
	if v, ok := n.WS.LookupFn("principal_node", datalog.Prin(n.Principal)); ok && v.Kind == datalog.KindNode {
		n.selfAddr = v.Str
		return n.selfAddr
	}
	return n.ep.Addr()
}

package dist

import (
	"context"
	"slices"
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
// transaction loop (Start), the node's one goroutine, applies queued local
// assertions and inbound wire messages as workspace transactions and ships
// newly derived export tuples: it decodes, verifies (inside the policy's
// constraints), signs and sends in line.
type Node struct {
	// Principal is the identity this node runs as (the value of self[]).
	Principal string
	// WS is the node's workspace. It must already have the compiled
	// program installed; the loop is its only writer once Start is called.
	WS *engine.Workspace
	// SignBatch, if set before Start, switches outbound shipping to batch
	// envelopes (paper footnote 2): instead of relying on per-tuple
	// signatures inside the payloads, every datagram a transaction ships is
	// covered by the one signature this hook returns over the group root of
	// their payload digests (wire.GroupRoot; one call per group of at most
	// wire.MaxGroup datagrams, on the loop, before the group's first send).
	// The cluster driver binds it to the signing memo over the node's
	// private key.
	SignBatch func(root []byte) ([]byte, error)
	// OnControl, if set before Start, receives every control record that is
	// neither a probe nor a report, decoded, with the transport-level sender
	// address; a payload that does not decode never reaches it. The cluster
	// runtime uses it to run its departure barrier and apply eviction gossip
	// over the node's own endpoint while the transaction loop owns the
	// receive channel. It runs on the loop goroutine and must not block.
	OnControl func(from string, c wire.Control)
	// Backlog, if set before Start, holds datagrams taken off the endpoint
	// before the loop owned it (cluster.Runtime.EarlyTraffic); they are the
	// head of the loop's first inbound batch, as if they had just arrived.
	Backlog []transport.InMsg

	ep transport.Transport

	mu      sync.Mutex
	pending [][]engine.Fact // queued local batches, each one transaction's base facts
	// violations keeps the errors of the first maxViolations rejections;
	// rejected counts them all.
	violations []error
	stopped    bool

	wake   chan struct{}
	stopCh chan struct{}
	wg     sync.WaitGroup

	startOnce sync.Once
	stopOnce  sync.Once

	// Termination-detection state: monotone counts of application messages
	// exchanged with cluster peers, one cell per peer so a detector can
	// restrict its wave sums to the surviving membership after an eviction.
	// Cells are created lazily under ctrMu; both are written only by the loop
	// goroutine and read by external inspectors — hence atomics. peers is
	// fixed before Start.
	peers   map[string]bool
	ctrMu   sync.Mutex
	perPeer map[string]*peerCtr

	// evictQ holds eviction requests (peer transport addresses) queued by
	// Evict for the loop goroutine, under mu; evicted is the loop-owned
	// set of peers already cut off.
	evictQ  []string
	evicted map[string]bool

	// Loop-goroutine-only state (no locking needed).
	selfAddr  string // cached principal_node[self] address
	batchRows bool   // the program declares export_batch, so batch envelopes are admitted

	// What ship reuses from one transaction to the next: the routes, the
	// chunks, and under batch signing the digester of their runs.
	routes   []route
	chunks   []outChunk
	digester *wire.Digester

	// Wave-trace context of the unit of work the loop is currently
	// applying (loop-goroutine only): the trace ID and hop distance any
	// chunk the unit ships is stamped with (hop plus one), and the peer whose
	// message triggered it (empty for locally asserted work).
	curTrace uint64
	curHop   uint32
	curPeer  string

	// The inbound batch being applied (loop-goroutine only, reused across
	// batches): its datagrams decoded, the admitted datagrams of the run
	// being built, in arrival order, and the one tuple every fact of a run is
	// refilled into on its way into the transaction (addRunMsg).
	envs    []envelope
	runMsgs []runMsg
	tuple   [4]datalog.Value

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
	txns, rejected      *obs.Counter
	// txnSeconds is the principal's series itself: the node's own reading is
	// txnTime.
	txnSeconds   *obs.Histogram
	txnTime      atomic.Int64 // summed duration of the node's committed transactions, ns
	lastActivity atomic.Int64 // last commit or violation as an offset from epoch, 0 before the first

	// busy is set by the loop goroutine around each unit of work
	// (drainLocal or an inbound batch). Drain needs it: a batch that was
	// popped from pending but is still mid-commit is otherwise invisible
	// (pending empty, its sends not yet made), and Drain returning during
	// that window would let Stop discard the commit's exports.
	busy atomic.Bool
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
		perPeer:   make(map[string]*peerCtr),
		evicted:   make(map[string]bool),
		batchRows: slices.Contains(ws.Predicates(), "export_batch"),
	}
	l := obs.Labels{"principal": principal}
	r := obs.Default()
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
	n.rejected = r.Counter("sbx_violations_total", l).Child()
	n.txnSeconds = r.Histogram("sbx_txn_duration_seconds", l, nil)
	n.runSizes = r.Histogram("sbx_inbound_run_messages", l, runSizeBuckets)
	n.runFallbacks = r.Counter("sbx_inbound_run_fallbacks_total", l)
	n.groupSizes = r.Histogram("sbx_batch_group_envelopes", l, groupSizeBuckets)
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
// shipped to or accepted from their addresses, and the endpoint's reliable
// layer forgets their pending frames and dedup state. Callable from any
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
// owns the evicted set.
func (n *Node) applyEvictions() {
	n.mu.Lock()
	q := n.evictQ
	n.evictQ = nil
	n.mu.Unlock()
	for _, addr := range q {
		if n.evicted[addr] {
			continue
		}
		n.evicted[addr] = true
		obs.L().With("principal", n.Principal).Info("peer cut off", "peer", addr)
		if f, ok := n.ep.(interface{ Forget(string) int }); ok {
			f.Forget(addr)
		}
	}
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

// Start launches the transaction loop, the node's one goroutine. It is
// idempotent.
func (n *Node) Start() {
	n.startOnce.Do(func() {
		n.wg.Add(1)
		go n.run()
	})
}

// Drain blocks until the node holds no queued local work and the loop is
// between units of work, or ctx is cancelled. It is the graceful half of
// leaving a cluster: Stop discards whatever is still queued, so a departing
// node that wants its last commits on the wire drains first, then stops;
// the loop sends what a commit ships before it takes the next unit. Drain
// does not prevent new work from arriving; callers stop asserting before
// draining.
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
		// the same mutex to pop); and once busy clears, every send of that
		// work has been made.
		if idle && !n.busy.Load() {
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
	n.mu.Lock()
	if n.stopped {
		n.mu.Unlock()
		return
	}
	n.pending = append(n.pending, facts)
	n.mu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// maxViolations bounds the errors a node keeps: a peer that sends garbage
// costs it a count, not memory.
const maxViolations = 64

// Violations returns the errors of the node's first maxViolations rejected
// (rolled-back) batches and dropped messages, local and inbound, in order;
// Rejections counts them all.
func (n *Node) Violations() []error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]error(nil), n.violations...)
}

// run is the per-node transaction loop of §5.2: drain local batches and
// inbound batches, apply each run of them as an ACID workspace transaction,
// and ship the export delta of successful commits. Inbound traffic comes off
// the endpoint as whole backlogs (transport.Transport.ReceiveBatch): a loop
// that was busy for one transaction takes everything that arrived meanwhile
// as one batch, the node's Backlog at the head of the first. Termination
// probes arrive in the same stream as data and are answered in line between
// runs, which guarantees a probe reply is always a between-transactions
// snapshot.
func (n *Node) run() {
	defer n.wg.Done()
	inbound := n.ep.ReceiveBatch()
	if backlog := n.Backlog; len(backlog) > 0 {
		n.Backlog = nil
		select {
		case msgs, ok := <-inbound:
			if ok {
				backlog = append(backlog, msgs...)
			}
		default:
		}
		n.handleBatch(backlog)
	}
	for {
		select {
		case <-n.stopCh:
			return
		case <-n.wake:
			n.busy.Store(true)
			n.drainLocal()
			n.busy.Store(false)
		case msgs, ok := <-inbound:
			if !ok {
				// Endpoint closed underneath us; serve local work until
				// Stop.
				inbound = nil
				continue
			}
			n.handleBatch(msgs)
		}
	}
}

// drainLocal applies the queued local batches as one workspace transaction
// (batching amortizes fixpoint and constraint sweeps, paper footnote 2) — but
// if the merged transaction is rejected, each batch is retried in isolation so
// one bad batch cannot roll back unrelated valid ones. The transaction may
// originate a derivation wave: it mints a fresh trace at hop 0 with no
// triggering peer.
func (n *Node) drainLocal() {
	n.applyEvictions()
	n.mu.Lock()
	batches := n.pending
	n.pending = nil
	n.mu.Unlock()
	if len(batches) == 0 {
		return
	}
	n.curTrace, n.curHop, n.curPeer = obs.NewTraceID(), 0, ""
	n.commitMerged(len(batches), func(i int) {
		for _, f := range batches[i] {
			n.WS.Add(f)
		}
	}, nil)
}

// commitMerged commits parts 0 to parts-1 as one transaction — add(i) adds
// part i's facts to it (engine.Workspace.Add) — and ships once. If the merged
// transaction is rejected, each part is committed on its own in order —
// enter(i), if set, runs before part i — so a bad part rolls back alone, is
// one recorded violation, and cannot veto the others. It reports whether the
// parts went in as one transaction.
func (n *Node) commitMerged(parts int, add, enter func(part int)) bool {
	if parts > 1 && n.commit(0, parts, add) == nil {
		return true
	}
	for i := range parts {
		if enter != nil {
			enter(i)
		}
		if err := n.commit(i, i+1, add); err != nil {
			n.recordViolation(err)
		}
	}
	return false
}

// commit runs parts lo to hi-1 as one workspace transaction and, if it
// commits, ships its export delta; on rejection the workspace has already
// rolled the whole transaction back.
func (n *Node) commit(lo, hi int, add func(part int)) error {
	start := time.Now()
	n.WS.Begin()
	for i := lo; i < hi; i++ {
		add(i)
	}
	res, err := n.WS.Commit()
	if err != nil {
		return err
	}
	n.committed(start, hi-lo)
	n.ship(res.InsertedRows("export"))
	return nil
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

// Rejections returns the number of batches the node has rejected (rolled
// back) and messages it has dropped, local and inbound.
func (n *Node) Rejections() int64 { return n.rejected.Value() }

// recordViolation registers one rejected batch or dropped message: its error
// is kept if it is among the first maxViolations, then it is counted, so a
// reader that sees a rejection counted finds the first error kept.
func (n *Node) recordViolation(err error) {
	n.lastActivity.Store(int64(time.Since(epoch)))
	obs.L().With("principal", n.Principal).Warn("constraint violation", "err", err.Error())
	n.mu.Lock()
	if len(n.violations) < maxViolations {
		n.violations = append(n.violations, err)
	}
	n.mu.Unlock()
	n.rejected.Inc()
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

package dist

import (
	"fmt"
	"strings"
	"time"

	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/obs"
	"secureblox/internal/transport"
	"secureblox/internal/wire"
)

// envelope is one inbound datagram plus its (single) wire decode and when
// the decode began and how long it took, for the datagram's decode span.
type envelope struct {
	in  transport.InMsg
	msg wire.Message
	err error

	at        time.Time     // when decoding began
	decodeDur time.Duration // wire decode time
}

// The run budget: an inbound transaction absorbs at most maxRunMsgs
// datagrams and at most maxRunBytes of them (its first datagram always fits).
// Constants, not settings: the budget only bounds how long a queued probe
// waits, how much one rejected merge wastes and how large the undo log grows.
// maxRunBytes is one full datagram, so merging never builds a transaction
// from more input than a single datagram could already carry; maxRunMsgs is
// far above the backlogs seen in practice (mean run 2.0–4.4 datagrams, none over
// 32 on any benchmark workload — EXPERIMENTS.md), so it costs no
// amortization and only caps a flood of tiny datagrams.
const (
	maxRunMsgs  = 64
	maxRunBytes = transport.MaxDatagram
)

// runSizeBuckets resolves run lengths up to the budget.
var runSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// runMsg is one admitted datagram of the inbound run being built.
type runMsg struct {
	e     *envelope
	trace uint64 // its wave: the envelope's trace, or a fresh one for a pre-trace sender
	// peer is the address the message claims to come from, for its spans,
	// which outlive the datagram: the transport's sender address when they
	// agree, else a copy — never a view that would keep the datagram alive.
	peer string
	// root is a batch envelope's group root as this node recomputes it
	// (wire.Message.BatchRoot), once for the merged transaction and a replay.
	root []byte
}

// handleBatch decodes one inbound batch, each datagram once, and applies it
// in arrival order as one unit of work. A control record is handled in line
// (see handleProbe) and closes the run before it, so it is handled after that
// run's commit and ship: a probe reply is still a between-transactions
// snapshot that includes every completed send. Each stretch of data datagrams
// between control records, cut at the run budget, is one run (applyRun).
func (n *Node) handleBatch(msgs []transport.InMsg) {
	n.busy.Store(true)
	defer n.busy.Store(false)
	envs := n.envs[:0]
	for _, m := range msgs {
		at := time.Now()
		msg, err := wire.DecodeMessage(m.Data)
		envs = append(envs, envelope{in: m, msg: msg, err: err, at: at, decodeDur: time.Since(at)})
	}
	for rest := envs; len(rest) > 0; {
		k := 1
		if e := &rest[0]; e.isControl() {
			n.handleProbe(e.in.From, e.msg)
		} else {
			k = n.applyRun(rest)
		}
		rest = rest[k:]
	}
	clear(envs) // the reused buffer must not keep the datagrams alive
	n.envs = envs[:0]
}

func (e *envelope) isControl() bool { return e.err == nil && e.msg.Kind == wire.MsgControl }

// applyRun admits the run of data datagrams at the head of envs — up to the
// first control record or the run budget — and commits their facts as one
// workspace transaction, returning how many datagrams it consumed (≥ 1).
//
// Admission is per datagram and does not depend on what the run becomes: the
// termination counter keys on the transport-level sender, so only datagrams
// from counted peers contribute to recv, mirroring how only sends to counted
// peers contribute to sent. Counting happens whether or not the message
// decodes, so peer counters stay balanced — and so do the
// RecordRecv/RecordMsgProcessed metrics, which cover exactly the same
// datagrams (malformed ones included) to keep byte and message counts
// comparable under corruption. An evicted peer's straggler traffic is
// dropped uncounted; evictions are applied between datagrams, so one that
// lands mid-run cuts off the rest of that peer's datagrams in the run.
//
// Every payload of an admitted message becomes an export(self, from, Pkt)
// fact, and the compiled policy rules take it from there (decrypt,
// deserialize, verify, import). The facts go into the workspace's transaction
// one at a time (engine.Workspace.Add) straight from the decoded envelopes,
// through one reused tuple whose values view the datagram: admitting a
// payload builds no Go fact and no value. Every fact the run asserts is
// transient (engine.Fact.Transient): export is a channel, not a table. The
// import rules, the constraints and a fallback replay read the facts as they
// always did, and at the end of the transaction the facts are gone, and so is
// their text, which the workspace viewed in the datagram instead of copying.
// So a payload that imports nothing in its own transaction is dropped, not
// kept for a later fact to complete: the directory a payload's import needs is in
// place before any data arrives (core.NewCluster, the cluster runtime's Ready
// barrier). The claimed source address in the message —
// not the transport-level sender — binds L, because authentication is the
// policy's job: under NoAuth a forged claim is accepted by design, under
// HMAC/RSA the signature constraints reject it. A batch envelope (MsgBatch)
// additionally asserts one export_batch fact per payload, binding the payload
// to the envelope's group root and signature. The root is recomputed here
// (wire.Message.BatchRoot): this envelope's digest comes from the payloads
// actually received — never from the sender — and takes its claimed position
// among the sibling digests the envelope carries, so a batch-signing policy's
// constraints verify the signature against what this node really saw, once
// per envelope thanks to the verify memo, and each envelope of a
// group verifies whether or not its siblings ever arrive. A node whose program
// declares no export_batch has no constraint that would check those rows, so
// it refuses a batch envelope whole: one recorded violation, nothing stored.
//
// The senders committed each message as one batch; merging several into one
// transaction amortizes the fixpoint, the constraint sweep and — above all —
// the shipping of what they derive (one envelope and one signature per route
// instead of one per datagram, paper footnote 2). If the merged transaction
// is rejected it is replayed one message per transaction in arrival order
// (commitMerged), so a forged message still rolls back alone as one recorded
// violation and cannot veto the honest traffic it was queued with.
func (n *Node) applyRun(envs []envelope) int {
	addr := n.localAddr()
	self := datalog.NodeV(addr)
	k, size := 0, 0
	for ; k < len(envs); k++ {
		e := &envs[k]
		if e.isControl() {
			break
		}
		if k > 0 && (k == maxRunMsgs || size+len(e.in.Data) > maxRunBytes) {
			break
		}
		size += len(e.in.Data)
	}
	for i := range envs[:k] {
		n.admit(&envs[i])
	}
	msgs := n.runMsgs
	if len(msgs) > 0 {
		// A merged transaction has several parents: it and whatever it ships
		// continue the first message's wave, at the deepest hop of the run.
		n.enterWave(0)
		for _, m := range msgs[1:] {
			n.curHop = max(n.curHop, m.e.msg.Hop)
		}
		merged := n.commitMerged(len(msgs), func(i int) { n.addRunMsg(i, self) }, n.enterWave)
		if merged {
			n.runSizes.Observe(float64(len(msgs)))
		} else {
			if len(msgs) > 1 {
				n.runFallbacks.Inc()
			}
			for range msgs {
				n.runSizes.Observe(1)
			}
		}
		// Every message keeps its own decode span under its own trace; an
		// absorbed one names the wave that carried it on.
		for i, m := range msgs {
			var into uint64
			if merged && i > 0 {
				into = msgs[0].trace
			}
			n.decodeSpan(m, addr, into)
		}
	}
	clear(msgs)
	n.runMsgs = msgs[:0]
	return k
}

// admit counts one data datagram and, if it is well-formed and its sender is
// not evicted, appends it to the run.
func (n *Node) admit(e *envelope) {
	in, msg := e.in, e.msg
	n.applyEvictions()
	if n.evicted[in.From] {
		return
	}
	if n.countsPeer(in.From) {
		n.peerCtrFor(in.From).recv.Add(1)
	}
	n.msgsRecv.Inc()
	n.bytesRecv.Add(int64(len(in.Data)))
	if e.err != nil || msg.Run.N == 0 {
		return // malformed or empty datagram: drop it
	}
	if msg.Kind == wire.MsgBatch && !n.batchRows {
		n.recordViolation(fmt.Errorf("dist: batch envelope from %s refused: the program checks no batch signature", msg.From))
		return
	}
	m := runMsg{e: e, trace: msg.Trace, peer: in.From}
	if msg.From != in.From {
		m.peer = strings.Clone(msg.From)
	}
	if m.trace == 0 {
		m.trace = obs.NewTraceID() // a pre-trace sender starts a fresh wave here
	}
	if msg.Kind == wire.MsgBatch {
		m.root = msg.BatchRoot()
	}
	n.runMsgs = append(n.runMsgs, m)
}

// addRunMsg adds the facts of the run's i-th message to the open transaction:
// an export(self, from, Pkt) fact per payload, then, for a batch envelope, an
// export_batch(from, Pkt, D, S) fact per payload, walking the datagram's run
// in place (wire.Run.Next). Every payload and the signature are views of the
// datagram, which nothing writes to (transport.InMsg), so the facts adopt
// them uncopied, and the workspace views them for the transaction: only a row
// that keeps a payload's text copies it. Each fact is the node's one tuple,
// refilled.
func (n *Node) addRunMsg(i int, self datalog.Value) {
	m := &n.runMsgs[i]
	msg := &m.e.msg
	from := datalog.NodeV(msg.From)
	t := n.tuple[:3]
	t[0], t[1] = self, from
	for run := msg.Run; run.N > 0; {
		t[2] = datalog.OwnedBytes(run.Next())
		n.WS.Add(engine.Fact{Pred: "export", Tuple: t, Transient: true})
	}
	if msg.Kind == wire.MsgBatch {
		t = n.tuple[:4]
		t[0], t[2], t[3] = from, datalog.OwnedBytes(m.root), datalog.OwnedBytes(msg.Sig)
		for run := msg.Run; run.N > 0; {
			t[1] = datalog.OwnedBytes(run.Next())
			n.WS.Add(engine.Fact{Pred: "export_batch", Tuple: t, Transient: true})
		}
	}
}

// enterWave adopts the wave of the run's i-th message: the transaction
// committed next and anything it ships continue that trace at its stamped hop.
func (n *Node) enterWave(i int) {
	m := n.runMsgs[i]
	n.curTrace, n.curHop, n.curPeer = m.trace, m.e.msg.Hop, m.peer
}

// decodeSpan records one admitted message's decode span.
func (n *Node) decodeSpan(m runMsg, addr string, into uint64) {
	e := m.e
	obs.RecordSpan(obs.Span{
		Trace: m.trace, Hop: int(e.msg.Hop), Node: addr, Principal: n.Principal,
		Stage: obs.StageDecode, Peer: m.peer, Start: e.at, Dur: e.decodeDur, Into: into,
	})
}

// handleProbe routes one control datagram, decoded once: a
// termination-detection probe is answered with a local snapshot, and any
// other record but a report (the cluster runtime's barrier records and
// eviction gossip) is handed to the OnControl hook. A stray report and a
// payload that does not decode are dropped here. A probe's report holds the
// monotone per-peer message counters plus whether local work is queued.
// Because probes are served by the transaction loop itself, which makes a
// commit's sends before it takes the next unit of work, a report is always
// taken between transactions, never mid-commit, and its counters include
// every send of every commit before it.
func (n *Node) handleProbe(replyTo string, msg wire.Message) {
	if msg.Run.N != 1 {
		return
	}
	c, err := wire.DecodeControl(msg.Run.Next())
	switch {
	case err != nil || c.Type == wire.CtrlReport:
		return
	case c.Type != wire.CtrlProbe:
		if n.OnControl != nil {
			n.OnControl(replyTo, c)
		}
		return
	}
	n.mu.Lock()
	active := len(n.pending) > 0
	n.mu.Unlock()
	data := wire.ControlMessage(n.localAddr(), wire.Control{
		Type:   wire.CtrlReport,
		Wave:   c.Wave,
		Active: active,
		Peers:  n.peerCounts(),
	})
	_ = n.ep.Send(replyTo, data) // best effort: the detector re-probes
}

package dist

import (
	"fmt"
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

// runShare bounds what admit appends to the run for a data datagram: an
// export(self, from, Pkt) fact per payload, and an export_batch(from, Pkt, D,
// S) fact per payload of a batch envelope.
func (e *envelope) runShare() (facts, vals int) {
	if e.err != nil {
		return 0, 0
	}
	p := len(e.msg.Payloads)
	if e.msg.Kind == wire.MsgBatch {
		return 2 * p, (3 + 4) * p
	}
	return p, 3 * p
}

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
// base fact, and the compiled policy rules take it from there (decrypt,
// deserialize, verify, import). The claimed source address in the message —
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
	k, size, facts, vals := 0, 0, 0, 0
	for ; k < len(envs); k++ {
		e := &envs[k]
		if e.isControl() {
			break
		}
		if k > 0 && (k == maxRunMsgs || size+len(e.in.Data) > maxRunBytes) {
			break
		}
		size += len(e.in.Data)
		f, v := e.runShare()
		facts, vals = facts+f, vals+v
	}
	// The run's facts and their values, sized for every datagram the run may
	// admit: a buffer grown by doubling would cost more than it saves.
	if cap(n.runFacts) < facts {
		n.runFacts = make([]engine.Fact, 0, facts)
	}
	if cap(n.runVals) < vals {
		n.runVals = make([]datalog.Value, 0, vals)
	}
	for i := range envs[:k] {
		n.admit(&envs[i], self)
	}
	msgs := n.runMsgs
	if len(msgs) > 0 {
		// A merged transaction has several parents: it and whatever it ships
		// continue the first message's wave, at the deepest hop of the run.
		n.enterWave(0)
		for _, m := range msgs[1:] {
			n.curHop = max(n.curHop, m.e.msg.Hop)
		}
		merged := n.commitMerged(n.runFacts, n.runEnds, n.enterWave)
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
	clear(n.runFacts)
	clear(n.runVals)
	clear(n.runMsgs)
	n.runFacts, n.runVals, n.runMsgs, n.runEnds = n.runFacts[:0], n.runVals[:0], n.runMsgs[:0], n.runEnds[:0]
	return k
}

// admit counts one data datagram and, if it is well-formed and its sender is
// not evicted, appends its facts to the run.
func (n *Node) admit(e *envelope, self datalog.Value) {
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
	if e.err != nil || len(msg.Payloads) == 0 {
		return // malformed or empty datagram: drop it
	}
	if msg.Kind == wire.MsgBatch && !n.batchRows {
		n.recordViolation(fmt.Errorf("dist: batch envelope from %s refused: the program checks no batch signature", msg.From))
		return
	}
	// Every payload and the signature are views of the datagram, which
	// nothing writes to (transport.InMsg), so the facts adopt them uncopied:
	// the workspace's intern table takes the one copy of each. The tuples are
	// windows of the run's value buffer, which applyRun sized for the run.
	from := datalog.NodeV(msg.From)
	for _, p := range msg.Payloads {
		n.runFact("export", self, from, datalog.OwnedBytes(p))
	}
	if msg.Kind == wire.MsgBatch {
		root := datalog.OwnedBytes(msg.BatchRoot())
		sig := datalog.OwnedBytes(msg.Sig)
		for _, p := range msg.Payloads {
			n.runFact("export_batch", from, datalog.OwnedBytes(p), root, sig)
		}
	}
	m := runMsg{e: e, trace: msg.Trace}
	if m.trace == 0 {
		m.trace = obs.NewTraceID() // a pre-trace sender starts a fresh wave here
	}
	n.runMsgs = append(n.runMsgs, m)
	n.runEnds = append(n.runEnds, len(n.runFacts))
}

// runFact appends a fact of pred over vals to the run, its tuple a window of
// the run's value buffer.
func (n *Node) runFact(pred string, vals ...datalog.Value) {
	lo := len(n.runVals)
	n.runVals = append(n.runVals, vals...)
	n.runFacts = append(n.runFacts, engine.Fact{Pred: pred, Tuple: n.runVals[lo:len(n.runVals):len(n.runVals)]})
}

// enterWave adopts the wave of the run's i-th message: the transaction
// committed next and anything it ships continue that trace at its stamped hop.
func (n *Node) enterWave(i int) {
	m := n.runMsgs[i]
	n.curTrace, n.curHop, n.curPeer = m.trace, m.e.msg.Hop, m.e.msg.From
}

// decodeSpan records one admitted message's decode span.
func (n *Node) decodeSpan(m runMsg, addr string, into uint64) {
	e := m.e
	obs.RecordSpan(obs.Span{
		Trace: m.trace, Hop: int(e.msg.Hop), Node: addr, Principal: n.Principal,
		Stage: obs.StageDecode, Peer: e.msg.From, Start: e.at, Dur: e.decodeDur, Into: into,
	})
}

// handleProbe routes one control datagram: termination-detection probes
// are answered with a local snapshot, and any other control payload (the
// cluster runtime's bootstrap/departure records) is handed to the
// OnControl hook. A probe's report holds the monotone per-peer message
// counters plus whether local work is queued. Because probes are served by
// the transaction loop itself, which makes a commit's sends before it takes
// the next unit of work, a report is always taken between transactions,
// never mid-commit, and its counters include every send of every commit
// before it.
func (n *Node) handleProbe(replyTo string, msg wire.Message) {
	if len(msg.Payloads) != 1 {
		return
	}
	c, err := wire.DecodeControl(msg.Payloads[0])
	if err != nil || c.Type != wire.CtrlProbe {
		if err != nil && n.OnControl != nil {
			n.OnControl(replyTo, msg.Payloads[0])
		}
		return
	}
	n.mu.Lock()
	active := len(n.pending) > 0
	n.mu.Unlock()
	report := wire.Control{
		Type:   wire.CtrlReport,
		Wave:   c.Wave,
		Active: active,
		Peers:  n.peerCounts(),
	}
	data := wire.EncodeMessage(wire.Message{
		Kind:     wire.MsgControl,
		From:     n.localAddr(),
		Payloads: [][]byte{wire.EncodeControl(report)},
	})
	_ = n.ep.Send(replyTo, data) // best effort: the detector re-probes
}

package dist

import (
	"time"

	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/obs"
	"secureblox/internal/transport"
	"secureblox/internal/wire"
)

// envelope is one inbound datagram plus its (single) wire decode and the
// stage timings taken where the work actually happened, so the loop can
// record decode/verify spans without re-measuring.
type envelope struct {
	in  transport.InMsg
	msg wire.Message
	err error

	at        time.Time     // when decoding began
	decodeDur time.Duration // wire decode time
	verifyDur time.Duration // PreVerify hand-off time
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

// intake is the inbound stage between the endpoint and the loop. It takes
// whatever the endpoint has queued, decodes each datagram once, hands data
// messages to PreVerify (if set) so signature checks overlap with
// transactions still committing, and offers the loop everything decoded so
// far as one batch in arrival order — a loop that was busy for one
// transaction finds its whole backlog waiting, not one message. The node's
// Backlog is the head of the first batch.
func (n *Node) intake() <-chan []envelope {
	in := n.ep.ReceiveBatch()
	out := make(chan []envelope)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		defer close(out)
		pending := n.decode(nil, n.Backlog)
		for in != nil || len(pending) > 0 {
			offer := out
			if len(pending) == 0 {
				offer = nil
			}
			select {
			case msgs, ok := <-in:
				if !ok {
					in = nil // endpoint closed: hand over what is decoded, then end
					continue
				}
				pending = n.decode(pending, msgs)
			case offer <- pending:
				pending = nil
			case <-n.stopCh:
				n.intakeDepth.Add(-int64(len(pending)))
				return
			}
		}
	}()
	return out
}

// decode appends the envelopes of msgs to dst.
func (n *Node) decode(dst []envelope, msgs []transport.InMsg) []envelope {
	for _, m := range msgs {
		at := time.Now()
		msg, err := wire.DecodeMessage(m.Data)
		e := envelope{in: m, msg: msg, err: err, at: at, decodeDur: time.Since(at)}
		if n.PreVerify != nil && err == nil && msg.Kind != wire.MsgControl {
			vstart := time.Now()
			n.PreVerify(msg)
			e.verifyDur = time.Since(vstart)
		}
		dst = append(dst, e)
	}
	n.intakeDepth.Add(int64(len(msgs)))
	return dst
}

// handleBatch applies one inbound batch in arrival order. A control record
// is handled in line (see handleProbe) and closes the run before it, so it is
// handled after that run's commit and ship: a probe reply is still a
// between-transactions snapshot that includes every completed send. Each
// stretch of data datagrams between control records, cut at the run budget,
// is one run (applyRun).
func (n *Node) handleBatch(envs []envelope) {
	for len(envs) > 0 {
		k := 1
		if e := &envs[0]; e.isControl() {
			n.handleProbe(e.in.From, e.msg)
		} else {
			k = n.applyRun(envs)
		}
		n.intakeDepth.Add(-int64(k))
		envs = envs[k:]
	}
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
// per envelope thanks to the memoizing verify pool, and each envelope of a
// group verifies whether or not its siblings ever arrive.
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
		n.admit(e, self)
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
		// Every message keeps its own decode/verify spans under its own
		// trace; an absorbed one names the wave that carried it on.
		for i, m := range msgs {
			var into uint64
			if merged && i > 0 {
				into = msgs[0].trace
			}
			n.inboundSpans(m, addr, into)
		}
	}
	clear(n.runFacts)
	clear(n.runMsgs)
	n.runFacts, n.runMsgs, n.runEnds = n.runFacts[:0], n.runMsgs[:0], n.runEnds[:0]
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
	// The decoder copied every payload and the signature out of the
	// datagram for this message alone, and from here on they are only read
	// (by the pre-verify pool too), so the facts adopt them uncopied.
	from := datalog.NodeV(msg.From)
	for _, p := range msg.Payloads {
		n.runFacts = append(n.runFacts, engine.Fact{
			Pred:  "export",
			Tuple: datalog.Tuple{self, from, datalog.OwnedBytes(p)},
		})
	}
	if msg.Kind == wire.MsgBatch {
		root := datalog.OwnedBytes(msg.BatchRoot())
		sig := datalog.OwnedBytes(msg.Sig)
		for _, p := range msg.Payloads {
			n.runFacts = append(n.runFacts, engine.Fact{
				Pred:  "export_batch",
				Tuple: datalog.Tuple{from, datalog.OwnedBytes(p), root, sig},
			})
		}
	}
	m := runMsg{e: e, trace: msg.Trace}
	if m.trace == 0 {
		m.trace = obs.NewTraceID() // a pre-trace sender starts a fresh wave here
	}
	n.runMsgs = append(n.runMsgs, m)
	n.runEnds = append(n.runEnds, len(n.runFacts))
}

// enterWave adopts the wave of the run's i-th message: the transaction
// committed next and anything it ships continue that trace at its stamped hop.
func (n *Node) enterWave(i int) {
	m := n.runMsgs[i]
	n.curTrace, n.curHop, n.curPeer = m.trace, m.e.msg.Hop, m.e.msg.From
}

// inboundSpans records one admitted message's decode and pre-verify spans.
func (n *Node) inboundSpans(m runMsg, addr string, into uint64) {
	e := m.e
	obs.RecordSpan(obs.Span{
		Trace: m.trace, Hop: int(e.msg.Hop), Node: addr, Principal: n.Principal,
		Stage: obs.StageDecode, Peer: e.msg.From, Start: e.at, Dur: e.decodeDur, Into: into,
	})
	if e.verifyDur > 0 {
		obs.RecordSpan(obs.Span{
			Trace: m.trace, Hop: int(e.msg.Hop), Node: addr, Principal: n.Principal,
			Stage: obs.StageVerify, Peer: e.msg.From, Start: e.at.Add(e.decodeDur), Dur: e.verifyDur,
		})
	}
}

// handleProbe routes one control datagram: termination-detection probes
// are answered with a local snapshot, and any other control payload (the
// cluster runtime's bootstrap/departure records) is handed to the
// OnControl hook. A probe's report holds the monotone per-peer message
// counters plus whether local work is queued or an outbound chunk is still
// in the sender stage. Because probes are served by the transaction loop
// itself, a report is always taken between transactions, never mid-commit
// — and because outPending is read before the counters (and decremented
// after the send is counted), a report that claims passivity always
// includes every completed send in its counters.
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
	active = active || n.outPending.Load() > 0
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

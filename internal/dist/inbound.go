package dist

import (
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/obs"
	"secureblox/internal/wire"
)

// handleMessage consumes one inbound datagram. Control messages are
// answered in line (see handleProbe); data messages are applied as one
// workspace transaction: every payload becomes an export(self, from, Pkt)
// base fact, and the compiled policy rules take it from there (decrypt,
// deserialize, verify, import). The claimed source address in the message —
// not the transport-level sender — binds L, because authentication is the
// policy's job: under NoAuth a forged claim is accepted by design, under
// HMAC/RSA the signature constraints reject it and the whole message rolls
// back as a recorded violation.
//
// One message is one transaction (the sender committed it as one batch),
// so a rejected forgery cannot roll back unrelated traffic.
//
// The termination counter, by contrast, keys on the transport-level sender:
// only datagrams from counted peers contribute to recv, mirroring how only
// sends to counted peers contribute to sent. Counting happens whether or
// not the message decodes, so peer counters stay balanced — and so do the
// RecordRecv/RecordMsgProcessed metrics, which cover exactly the same
// datagrams (malformed ones included) to keep byte and message counts
// comparable under corruption.
//
// A batch envelope (MsgBatch) additionally asserts one export_batch fact
// per payload, binding the payload to the digest of the whole received
// sequence and to the envelope's signature. The digest is recomputed here
// from the payloads actually received — never taken from the sender — so a
// batch-signing policy's constraints verify the signature against what
// this node really saw, once per envelope thanks to the memoizing verify
// pool.
func (n *Node) handleMessage(e envelope) {
	in, msg, err := e.in, e.msg, e.err
	if err == nil && msg.Kind == wire.MsgControl {
		n.handleProbe(in.From, msg)
		return
	}
	n.applyEvictions()
	if n.evicted[in.From] {
		return // an evicted peer's straggler traffic is dropped uncounted
	}
	if n.countsPeer(in.From) {
		n.ctrRecv.Add(1)
		n.peerCtrFor(in.From).recv.Add(1)
	}
	n.Metrics.RecordMsgProcessed()
	n.Metrics.RecordRecv(len(in.Data))
	if err != nil || len(msg.Payloads) == 0 {
		return // malformed or empty datagram: drop it
	}
	// Adopt the sender's wave: the transaction below and anything it ships
	// continue the envelope's trace at its stamped hop. A pre-trace sender
	// (zero trace) starts a fresh wave here.
	n.curTrace, n.curHop, n.curPeer = msg.Trace, msg.Hop, msg.From
	if n.curTrace == 0 {
		n.curTrace = obs.NewTraceID()
	}
	addr := n.localAddr()
	obs.RecordSpan(obs.Span{
		Trace: n.curTrace, Hop: int(n.curHop), Node: addr, Principal: n.Principal,
		Stage: obs.StageDecode, Peer: msg.From, Start: e.at, Dur: e.decodeDur,
	})
	if e.verifyDur > 0 {
		obs.RecordSpan(obs.Span{
			Trace: n.curTrace, Hop: int(n.curHop), Node: addr, Principal: n.Principal,
			Stage: obs.StageVerify, Peer: msg.From, Start: e.at.Add(e.decodeDur), Dur: e.verifyDur,
		})
	}
	// The decoder copied every payload and the signature out of the
	// datagram for this message alone, and from here on they are only read
	// (by the pre-verify pool too), so the facts adopt them uncopied.
	self := datalog.NodeV(addr)
	from := datalog.NodeV(msg.From)
	facts := make([]engine.Fact, 0, len(msg.Payloads))
	for _, p := range msg.Payloads {
		facts = append(facts, engine.Fact{
			Pred:  "export",
			Tuple: datalog.Tuple{self, from, datalog.OwnedBytes(p)},
		})
	}
	if msg.Kind == wire.MsgBatch {
		digest := datalog.OwnedBytes(wire.BatchDigest(msg.Payloads))
		sig := datalog.OwnedBytes(msg.Sig)
		for _, p := range msg.Payloads {
			facts = append(facts, engine.Fact{
				Pred:  "export_batch",
				Tuple: datalog.Tuple{from, datalog.OwnedBytes(p), digest, sig},
			})
		}
	}
	n.commit(facts)
}

// handleProbe routes one control datagram: termination-detection probes
// are answered with a local snapshot, and any other control payload (the
// cluster runtime's bootstrap/departure records) is handed to the
// OnControl hook. A probe's report holds the monotone peer-message
// counters plus whether local work is queued or an outbound chunk is still
// in the sender stage. Because probes are served by the transaction loop
// itself, a report is always taken between transactions, never mid-commit
// — and because outPending is read before the counters (and decremented
// after ctrSent is bumped), a report that claims passivity always includes
// every completed send in its counters.
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
		Sent:   n.ctrSent.Load(),
		Recv:   n.ctrRecv.Load(),
		Active: active,
		// The per-peer breakdown lets the detector exclude message pairs
		// involving evicted principals from its wave sums.
		Peers: n.peerCounts(),
	}
	data := wire.EncodeMessage(wire.Message{
		Kind:     wire.MsgControl,
		From:     n.localAddr(),
		Payloads: [][]byte{wire.EncodeControl(report)},
	})
	_ = n.ep.Send(replyTo, data) // best effort: the detector re-probes
}

package dist

import (
	"fmt"
	"time"

	"secureblox/internal/datalog"
	"secureblox/internal/obs"
	"secureblox/internal/transport"
	"secureblox/internal/wire"
)

// outChunk is one wire message in the making: a route's payloads that fit
// a single datagram, together with the export tuples they came from so a
// failed send can release exactly those tuples' dedup marks for re-shipping.
type outChunk struct {
	to, from  string
	tuples    []datalog.Tuple
	payloads  [][]byte
	oversized bool // single payload beyond the datagram budget, shipped alone

	// Batch-signing mode: the signing group the chunk belongs to and its
	// position in it.
	group *batchGroup
	pos   int

	// Wave-trace context, captured on the loop goroutine at dispatch so
	// the sender stage can stamp the envelope and record spans without
	// touching loop-owned state.
	trace uint64 // wave the shipping transaction belongs to
	hop   uint32 // receiver's hop: the local hop plus one
	node  string // local address, for span attribution
}

// batchGroup is the signed unit of batch-signing mode: the chunks one
// transaction ships, at most wire.MaxGroup of them, covered by one signature
// over root (paper footnote 2: "sign batch aggregates"). Whichever stage
// sends the group's first chunk signs; the chunks after it reuse the result,
// so only that one goroutine touches the signing fields.
type batchGroup struct {
	digests []byte // the chunks' wire.BatchDigests, concatenated in group order
	root    []byte // wire.GroupRoot(digests): what the signature covers

	signed bool
	sig    []byte
	err    error
}

// groupSizeBuckets resolves group sizes up to wire.MaxGroup.
var groupSizeBuckets = []float64{1, 2, 3, 4, 8, 16}

// ship sends the export tuples a transaction newly derived. The Inserted
// delta already excludes tuples that were present before the transaction,
// and the sent-set excludes anything shipped by an earlier transaction —
// re-derivations of known facts therefore produce no traffic, which is
// what lets distributed fixpoints terminate. Tuples addressed to this node
// (inbound assertions and local loopbacks) are skipped.
//
// A tuple is only *durably* marked sent once its datagram is actually
// accepted by the transport: the mark is taken optimistically here (so one
// tuple is never in flight twice), but a failed send releases it again via
// reclaimFailed, and the next offer of the tuple — a re-derivation or a
// post-retraction export sync — ships it instead of dedup-suppressing it
// forever.
func (n *Node) ship(exports []datalog.Tuple) {
	n.reclaimFailed()
	if len(exports) == 0 {
		return
	}
	self := n.localAddr()
	type route struct{ to, from string }
	var order []route
	tuples := make(map[route][]datalog.Tuple)
	payloads := make(map[route][][]byte)
	for _, t := range exports {
		if len(t) != 3 || t[0].Kind != datalog.KindNode || t[2].Kind != datalog.KindBytes {
			continue // not a well-formed export(N, L, Pkt) tuple
		}
		if n.sent.Contains(t) {
			continue
		}
		to := t[0].Str
		if to == self || to == n.ep.Addr() {
			continue // inbound assertions and loopbacks never need dedup
		}
		if n.evicted[to] {
			continue // no traffic to evicted peers, and no dedup mark either
		}
		n.sent.Insert(t, false)
		r := route{to: to, from: t[1].Str}
		if _, ok := payloads[r]; !ok {
			order = append(order, r)
		}
		tuples[r] = append(tuples[r], t)
		payloads[r] = append(payloads[r], t[2].Bytes())
	}
	n.sentSize.Store(int64(n.sent.Len()))
	var chunks []outChunk
	for _, r := range order {
		chunks = append(chunks, chunkRoute(r.to, r.from, tuples[r], payloads[r], n.SignBatch != nil)...)
	}
	if n.SignBatch != nil {
		n.sealGroups(chunks)
	}
	for _, c := range chunks {
		n.dispatch(c)
	}
}

// sealGroups makes the transaction's whole export set the signed unit: its
// chunks, across every route, are cut into groups of at most wire.MaxGroup,
// and each group's root is pre-warmed on the signing pool so the signature is
// usually computed by the time the sender stage reaches the group's first
// chunk. A transaction advertising to three neighbours pays one private-key
// operation, not three.
func (n *Node) sealGroups(chunks []outChunk) {
	for lo := 0; lo < len(chunks); lo += wire.MaxGroup {
		group := chunks[lo:min(lo+wire.MaxGroup, len(chunks))]
		g := &batchGroup{digests: make([]byte, 0, len(group)*wire.DigestSize)}
		for i := range group {
			g.digests = append(g.digests, wire.BatchDigest(group[i].payloads)...)
			group[i].group, group[i].pos = g, i
		}
		g.root = wire.GroupRoot(g.digests)
		n.groupSizes.Observe(float64(len(group)))
		if n.WarmSignBatch != nil {
			n.WarmSignBatch(g.root)
		}
	}
}

// chunkRoute splits one route's payloads into datagram-sized chunks. A
// single payload that cannot fit any datagram even alone is isolated into
// its own flagged chunk up front, so its inevitable transport rejection
// costs exactly one payload and one clearly-attributed violation instead
// of silently sinking the batch it happened to share a flush with.
func chunkRoute(to, from string, tuples []datalog.Tuple, payloads [][]byte, batchSigned bool) []outChunk {
	header := wire.MessageOverhead(from)
	if batchSigned {
		header = wire.MessageOverheadBatch(from)
	}
	var chunks []outChunk
	var curTuples []datalog.Tuple
	var curPayloads [][]byte
	size := header
	flush := func() {
		if len(curPayloads) == 0 {
			return
		}
		chunks = append(chunks, outChunk{to: to, from: from, tuples: curTuples, payloads: curPayloads})
		curTuples, curPayloads, size = nil, nil, header
	}
	for i, p := range payloads {
		sz := wire.PayloadOverhead + len(p)
		if header+sz > transport.MaxDatagram {
			flush()
			chunks = append(chunks, outChunk{
				to: to, from: from,
				tuples: tuples[i : i+1], payloads: payloads[i : i+1],
				oversized: true,
			})
			continue
		}
		if len(curPayloads) > 0 && size+sz > transport.MaxDatagram {
			flush()
		}
		curTuples = append(curTuples, tuples[i])
		curPayloads = append(curPayloads, p)
		size += sz
	}
	flush()
	return chunks
}

// dispatch hands one chunk to the wire. Without a batch signer the send
// happens inline, exactly as the paper's serial transaction loop does.
// With one, the chunk enters the asynchronous outbound pipeline: it is
// queued for the sender stage, and the loop goes back to committing the
// next transaction while workers compute its group's signature — the
// outbound mirror of the inbound intake stage (footnote 2).
func (n *Node) dispatch(c outChunk) {
	c.trace, c.hop, c.node = n.curTrace, n.curHop+1, n.localAddr()
	if n.outCh == nil {
		n.sendChunk(c)
		return
	}
	n.outPending.Add(1)
	n.outCh <- c
}

// sender is the outbound pipeline stage: it drains queued chunks, waits
// for their groups' (usually pre-warmed) signatures, and puts them on the
// wire in order. outPending keeps termination detection sound — a node
// with chunks still in this stage reports itself active, so a probe can
// never observe balanced counters while a send is pending.
func (n *Node) sender() {
	defer n.wg.Done()
	for c := range n.outCh {
		select {
		case <-n.stopCh:
			// Stopping: discard rather than racing sends against Close.
		default:
			n.sendChunk(c)
		}
		n.outPending.Add(-1)
	}
}

// sendChunk signs (in batch mode, once per group) and sends one chunk,
// updating the termination counter (when the destination is a counted peer)
// and the traffic metrics. On any failure — signing error, unknown address, closed
// destination, oversized datagram — a violation is recorded so the loss is
// observable and the chunk's dedup marks are released so the tuples ship
// again when next offered; over UDP the reliable layer below retransmits
// accepted datagrams until delivery, over memnet delivery is immediate.
func (n *Node) sendChunk(c outChunk) {
	msg := wire.Message{From: c.from, Payloads: c.payloads, Trace: c.trace, Hop: c.hop}
	if g := c.group; g != nil {
		if !g.signed {
			signStart := time.Now()
			g.sig, g.err = n.SignBatch(g.root)
			g.signed = true
			obs.RecordSpan(obs.Span{
				Trace: c.trace, Hop: int(c.hop) - 1, Node: c.node, Principal: n.Principal,
				Stage: obs.StageSign, Peer: c.to, Start: signStart, Dur: time.Since(signStart),
			})
		}
		if g.err != nil {
			n.recordViolation(fmt.Errorf("dist: batch signing of %d payloads to %s failed: %w", len(c.payloads), c.to, g.err))
			n.releaseMarks(c.tuples)
			return
		}
		msg.Kind, msg.Sig = wire.MsgBatch, g.sig
		msg.Pos, msg.Siblings = uint32(c.pos), wire.Siblings(g.digests, c.pos)
	}
	data := wire.EncodeMessage(msg)
	shipStart := time.Now()
	if err := n.ep.Send(c.to, data); err != nil {
		if c.oversized {
			n.recordViolation(fmt.Errorf("dist: oversized payload (%d bytes) to %s dropped: %w", len(c.payloads[0]), c.to, err))
		} else {
			n.recordViolation(fmt.Errorf("dist: dropped %d-payload message to %s: %w", len(c.payloads), c.to, err))
		}
		n.releaseMarks(c.tuples)
		return
	}
	if n.countsPeer(c.to) {
		n.peerCtrFor(c.to).sent.Add(1)
	}
	n.Metrics.RecordSent(len(data))
	obs.RecordSpan(obs.Span{
		Trace: c.trace, Hop: int(c.hop) - 1, Node: c.node, Principal: n.Principal,
		Stage: obs.StageShip, Peer: c.to, Start: shipStart, Dur: time.Since(shipStart),
	})
}

// releaseMarks queues a failed chunk's tuples for reclamation. It is
// called from the loop goroutine (inline sends) and the sender stage, so
// it only records them; reclaimFailed applies them on the loop goroutine,
// which owns the sent-set.
func (n *Node) releaseMarks(tuples []datalog.Tuple) {
	n.mu.Lock()
	n.failed = append(n.failed, tuples...)
	n.mu.Unlock()
}

// reclaimFailed un-marks tuples whose sends failed, so the next time they
// are offered to ship they go out instead of being dedup-suppressed by a
// send that never happened. Runs on the loop goroutine.
func (n *Node) reclaimFailed() {
	n.mu.Lock()
	failed := n.failed
	n.failed = nil
	n.mu.Unlock()
	if len(failed) == 0 {
		return
	}
	for _, t := range failed {
		n.sent.Delete(t)
	}
	n.sentSize.Store(int64(n.sent.Len()))
}

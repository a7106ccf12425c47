package dist

import (
	"fmt"
	"slices"
	"time"

	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/obs"
	"secureblox/internal/transport"
	"secureblox/internal/wire"
)

// outChunk is one wire message in the making: a route's payloads that fit
// a single datagram.
type outChunk struct {
	to, from  string
	payloads  [][]byte // a window of the shipping transaction's one payload list
	oversized bool     // single payload beyond the datagram budget, shipped alone

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

// ship sends the export tuples a transaction newly derived: the committed
// transaction's inserted rows, which hold only tuples new to the store. The
// store keeps every export row it ever held, since nothing retracts one, so
// each tuple is offered here once in the node's life and a re-derivation of a
// known fact produces no traffic — which is what lets distributed fixpoints
// terminate. Tuples addressed to this node (inbound assertions and local
// loopbacks) and to evicted peers are skipped. A send that fails is one
// recorded violation and is not offered again.
//
// exports is read twice, each row as one reused view
// (engine.TxnResult.InsertedRows): what ship keeps of a tuple is its text,
// which the workspace's intern table holds for good. The first pass counts
// each route's payloads, routes in order of first appearance; the second
// places the payloads, grouped by route, into one list the transaction's
// chunks are windows of. Sent inline, every chunk is encoded before ship
// returns, so the list is the node's and reused; chunks queued for the sender
// stage outlive ship and get a list of their own.
func (n *Node) ship(exports engine.Rows) {
	self := n.localAddr()
	routes := n.routes[:0]
	for i := range exports.Len() {
		if to, from, ok := n.shipsTo(exports.At(i), self); ok {
			r := routeIndex(routes, to, from)
			if r < 0 {
				r, routes = len(routes), append(routes, route{to: to, from: from})
			}
			routes[r].n++
		}
	}
	n.routes = routes
	// routes[i].n becomes where route i's payloads start, and then, as they
	// are placed, where they end.
	total := 0
	for i := range routes {
		routes[i].n, total = total, total+routes[i].n
	}
	if total == 0 {
		return
	}
	var payloads [][]byte
	if n.outCh == nil {
		n.payloads = slices.Grow(n.payloads[:0], total)
		payloads = n.payloads[:total]
	} else {
		payloads = make([][]byte, total)
	}
	for i := range exports.Len() {
		t := exports.At(i)
		if to, from, ok := n.shipsTo(t, self); ok {
			r := &routes[routeIndex(routes, to, from)]
			payloads[r.n] = t[2].Bytes()
			r.n++
		}
	}
	chunks, lo := n.chunks[:0], 0
	for _, r := range routes {
		chunks = chunkRoute(chunks, r.to, r.from, payloads[lo:r.n], n.SignBatch != nil)
		lo = r.n
	}
	if n.SignBatch != nil {
		n.sealGroups(chunks)
	}
	for _, c := range chunks {
		n.dispatch(c)
	}
	clear(chunks)
	n.chunks = chunks
}

// shipsTo reports whether ship sends t — a well-formed export(N, L, Pkt)
// tuple for another live node — and the route it takes.
func (n *Node) shipsTo(t datalog.Tuple, self string) (to, from string, ok bool) {
	if len(t) != 3 || t[0].Kind != datalog.KindNode || t[1].Kind != datalog.KindNode || t[2].Kind != datalog.KindBytes {
		return "", "", false
	}
	to = t[0].Str
	if to == self || to == n.ep.Addr() || n.evicted[to] {
		return "", "", false
	}
	return to, t[1].Str, true
}

// route is one destination of a shipping transaction and the address its
// payloads claim to come from; n counts its payloads, then marks where they
// end in the transaction's list.
type route struct {
	to, from string
	n        int
}

// routeIndex returns the index of the route to, from in routes, or -1.
func routeIndex(routes []route, to, from string) int {
	return slices.IndexFunc(routes, func(o route) bool { return o.to == to && o.from == from })
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

// chunkRoute appends one route's payloads to chunks, cut into datagram-sized
// windows of payloads. A single payload that cannot fit any datagram even
// alone is isolated into its own flagged chunk up front, so its inevitable
// transport rejection costs exactly one payload and one clearly-attributed
// violation instead of silently sinking the batch it happened to share a
// flush with.
func chunkRoute(chunks []outChunk, to, from string, payloads [][]byte, batchSigned bool) []outChunk {
	header := wire.MessageOverhead(from)
	if batchSigned {
		header = wire.MessageOverheadBatch(from)
	}
	lo, size := 0, header
	flush := func(hi int) {
		if hi > lo {
			chunks = append(chunks, outChunk{to: to, from: from, payloads: payloads[lo:hi:hi]})
		}
		lo, size = hi, header
	}
	for i, p := range payloads {
		sz := wire.PayloadOverhead + len(p)
		if header+sz > transport.MaxDatagram {
			flush(i)
			chunks = append(chunks, outChunk{to: to, from: from, payloads: payloads[i : i+1 : i+1], oversized: true})
			lo = i + 1
			continue
		}
		if i > lo && size+sz > transport.MaxDatagram {
			flush(i)
		}
		size += sz
	}
	flush(len(payloads))
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
// and the traffic metrics. On any failure — signing error, unknown address,
// closed destination, oversized datagram — a violation is recorded so the
// loss is observable; the chunk is not sent again. Over UDP the reliable
// layer below retransmits accepted datagrams until delivery, over memnet
// delivery is immediate.
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
		return
	}
	if n.countsPeer(c.to) {
		n.peerCtrFor(c.to).sent.Add(1)
	}
	n.msgsSent.Inc()
	n.bytesSent.Add(int64(len(data)))
	obs.RecordSpan(obs.Span{
		Trace: c.trace, Hop: int(c.hop) - 1, Node: c.node, Principal: n.Principal,
		Stage: obs.StageShip, Peer: c.to, Start: shipStart, Dur: time.Since(shipStart),
	})
}

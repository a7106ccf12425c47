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

// outChunk is one datagram in the making: a route's payloads that fit a
// single datagram. They are the rows in [lo, hi) of the shipping
// transaction's export rows that take its route, in row order.
type outChunk struct {
	to, from  string
	route     int  // its route's index: the chunks go out route by route
	lo, hi    int  // the export rows it covers
	n, size   int  // its payloads, and the bytes their run takes
	budget    int  // what chunking charges it: header and payloads at their bounds
	oversized bool // single payload beyond the datagram budget, shipped alone

	// Batch-signing mode: the signing group the chunk belongs to and its
	// position in it.
	group *batchGroup
	pos   int
}

// batchGroup is the signed unit of batch-signing mode: the chunks one
// transaction ships, at most wire.MaxGroup of them, covered by one signature
// over the group root of their digests (paper footnote 2: "sign batch
// aggregates"), made once before the group's first send.
type batchGroup struct {
	digests []byte // the chunks' run digests, concatenated in group order
	sig     []byte
	err     error
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
// exports is read by position, each row as one reused view
// (engine.TxnResult.InsertedRows): what ship takes of a tuple is its payload,
// which the workspace's intern table holds for good. One pass cuts every
// route's payloads, in row order, into datagram-sized chunks, each a span of
// rows and the count and size of the payloads it covers; routes are ordered
// by first appearance. Then each chunk is encoded once, straight from its
// rows into the buffer the transport sends (sendChunk), and under batch
// signing its run is digested from the same rows before that (sealGroups).
// Nothing ship keeps grows with the number of exports: the routes and chunks
// are the node's, reused.
func (n *Node) ship(exports engine.Rows) {
	self := n.localAddr()
	routes, chunks := n.routes[:0], n.chunks[:0]
	for i := range exports.Len() {
		t := exports.At(i)
		to, from, ok := n.shipsTo(t, self)
		if !ok {
			continue
		}
		r := routeIndex(routes, to, from)
		if r < 0 {
			header := wire.MessageOverhead(from)
			if n.SignBatch != nil {
				header = wire.MessageOverheadBatch(from)
			}
			r, routes = len(routes), append(routes, route{to: to, from: from, header: header, open: -1})
		}
		rt := &routes[r]
		p := len(t[2].Str)
		sz := wire.PayloadOverhead + p
		if rt.header+sz > transport.MaxDatagram {
			// A payload that cannot fit any datagram even alone is isolated
			// into its own flagged chunk, so its inevitable transport
			// rejection costs exactly one payload and one clearly-attributed
			// violation instead of sinking the chunk it would have shared.
			chunks = append(chunks, outChunk{to: to, from: from, route: r, lo: i, hi: i + 1, n: 1, size: wire.RunLen(p), oversized: true})
			rt.open = -1
			continue
		}
		if rt.open >= 0 && chunks[rt.open].budget+sz > transport.MaxDatagram {
			rt.open = -1
		}
		if rt.open < 0 {
			rt.open, chunks = len(chunks), append(chunks, outChunk{to: to, from: from, route: r, lo: i, budget: rt.header})
		}
		c := &chunks[rt.open]
		c.hi, c.n, c.size, c.budget = i+1, c.n+1, c.size+wire.RunLen(p), c.budget+sz
	}
	n.routes = routes
	// Each route's chunks were cut in row order; they go out route by route.
	slices.SortStableFunc(chunks, func(a, b outChunk) int { return a.route - b.route })
	if n.SignBatch != nil && len(chunks) > 0 {
		n.sealGroups(exports, chunks)
	}
	for i := range chunks {
		n.sendChunk(exports, &chunks[i])
	}
	clear(chunks)
	n.chunks = chunks[:0]
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

// payloadOf returns t's payload if chunk c carries it: if t, one of the rows
// in c's span, is an export tuple on c's route. shipsTo admitted the route
// when ship cut the chunk.
func payloadOf(t datalog.Tuple, c *outChunk) ([]byte, bool) {
	if len(t) != 3 || t[0].Str != c.to || t[1].Str != c.from ||
		t[0].Kind != datalog.KindNode || t[1].Kind != datalog.KindNode || t[2].Kind != datalog.KindBytes {
		return nil, false
	}
	return t[2].Bytes(), true
}

// route is one destination of a shipping transaction and the address its
// payloads claim to come from, with the header chunking charges each of its
// datagrams and the chunk it is filling (-1: none).
type route struct {
	to, from string
	header   int
	open     int
}

// routeIndex returns the index of the route to, from in routes, or -1.
func routeIndex(routes []route, to, from string) int {
	return slices.IndexFunc(routes, func(o route) bool { return o.to == to && o.from == from })
}

// sealGroups makes the transaction's whole export set the signed unit: its
// chunks, across every route, are cut into groups of at most wire.MaxGroup,
// and each group's root is signed once, here, timed as a sign span. A
// transaction advertising to three neighbours pays one private-key operation,
// not three. A chunk's digest is its run's (wire.Run.Digest), taken from the
// rows sendChunk encodes the run from, before the signature that precedes the
// run in the datagram exists.
func (n *Node) sealGroups(exports engine.Rows, chunks []outChunk) {
	if n.digester == nil {
		n.digester = wire.NewDigester()
	}
	for lo := 0; lo < len(chunks); lo += wire.MaxGroup {
		group := chunks[lo:min(lo+wire.MaxGroup, len(chunks))]
		g := &batchGroup{digests: make([]byte, 0, len(group)*wire.DigestSize)}
		for i := range group {
			c := &group[i]
			for r := c.lo; r < c.hi; r++ {
				if p, ok := payloadOf(exports.At(r), c); ok {
					n.digester.Add(p)
				}
			}
			g.digests = n.digester.AppendSum(g.digests)
			c.group, c.pos = g, i
		}
		n.groupSizes.Observe(float64(len(group)))
		start := time.Now()
		g.sig, g.err = n.SignBatch(wire.GroupRoot(g.digests))
		obs.RecordSpan(obs.Span{
			Trace: n.curTrace, Hop: int(n.curHop), Node: n.localAddr(), Principal: n.Principal,
			Stage: obs.StageSign, Peer: group[0].to, Start: start, Dur: time.Since(start),
		})
	}
}

// sendChunk encodes one chunk — in batch mode as an envelope carrying its
// group's signature — stamped with the loop's wave context, and sends it,
// updating the termination counter (when the destination is a counted peer)
// and the traffic metrics. The message is encoded once, from the chunk's rows,
// into a buffer of its exact size plus transport.FrameRoom, which the
// transport sends as it is. On any failure — signing error, unknown address,
// closed destination, oversized datagram — a violation is recorded so the
// loss is observable; the chunk is not sent again. Over UDP the reliable layer
// below retransmits accepted datagrams until delivery, over memnet delivery is
// immediate.
func (n *Node) sendChunk(exports engine.Rows, c *outChunk) {
	m := wire.Message{From: c.from, Run: wire.Run{N: c.n}, Trace: n.curTrace, Hop: n.curHop + 1}
	if g := c.group; g != nil {
		if g.err != nil {
			n.recordViolation(fmt.Errorf("dist: batch signing of %d payloads to %s failed: %w", c.n, c.to, g.err))
			return
		}
		m.Kind, m.Sig = wire.MsgBatch, g.sig
		m.Pos, m.Siblings = uint32(c.pos), wire.Siblings(g.digests, c.pos)
	}
	data := wire.AppendHeader(make([]byte, 0, wire.HeaderLen(m)+c.size+transport.FrameRoom), m)
	for i := c.lo; i < c.hi; i++ {
		if p, ok := payloadOf(exports.At(i), c); ok {
			data = wire.AppendRun(data, p)
		}
	}
	shipStart := time.Now()
	if err := n.ep.Send(c.to, data); err != nil {
		if c.oversized {
			n.recordViolation(fmt.Errorf("dist: oversized payload (%d-byte datagram) to %s dropped: %w", len(data), c.to, err))
		} else {
			n.recordViolation(fmt.Errorf("dist: dropped %d-payload message to %s: %w", c.n, c.to, err))
		}
		return
	}
	if n.countsPeer(c.to) {
		n.peerCtrFor(c.to).sent.Add(1)
	}
	n.msgsSent.Inc()
	n.bytesSent.Add(int64(len(data)))
	obs.RecordSpan(obs.Span{
		Trace: n.curTrace, Hop: int(n.curHop), Node: n.localAddr(), Principal: n.Principal,
		Stage: obs.StageShip, Peer: c.to, Start: shipStart, Dur: time.Since(shipStart),
	})
}

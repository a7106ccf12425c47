package dist_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/dist"
	"secureblox/internal/engine"
	"secureblox/internal/obs"
	"secureblox/internal/seccrypto"
	"secureblox/internal/transport"
	"secureblox/internal/transport/transporttest"
	"secureblox/internal/wire"
)

// adversaryQuery makes one datagram per peer per sender transaction and one
// export per accepted import: the sender says every msg to each of its peers,
// a receiver imports it into inbox and says an ack back to whoever the message
// claimed to come from — so what a receiver committed shows in its database,
// and in what it shipped. What the sender says aside goes to
// that principal only, so two peers' datagrams need not carry the same bytes.
const adversaryQuery = `
	msg(X) -> int(X).
	inbox(X) -> int(X).
	ack(X) -> int(X).
	peer(U) -> principal(U).
	aside(U) -> principal(U).
	exportable('inbox).
	exportable('ack).
	says['inbox](self[], U, X) <- msg(X), peer(U).
	says['ack](self[], U, X) <- msg(X), aside(U).
	inbox(X) <- says['inbox](U, self[], X).
	says['ack](self[], U, X) <- says['inbox](U, self[], X).
	ack(X) <- says['ack](U, self[], X).
`

// The cast: p0 sends, p1 receives, p2 is the principal a spoofed datagram
// claims to come from.
const (
	advSender, advReceiver, advBystander = 0, 1, 2

	advProbeFrom = "10.0.255.1:7999" // where the tests' own termination probes come from
)

// inboundRig is a three-principal deployment under one policy with a recorded
// run of honest datagrams from p0 to p1, and everything needed to stand up a
// fresh p1 over a scripted endpoint for each scenario. p0 says everything to
// p2 as well, and a little more, so under RSA-batch every recorded envelope
// is one of a signing group of two whose sibling — different bytes, hence a
// different digest — p1 never sees.
type inboundRig struct {
	c      *core.Cluster
	honest []transport.InMsg
	vpool  *seccrypto.VerifyPool
	spool  *seccrypto.SignPool
}

// newInboundRig builds the deployment and records n honest datagrams: p0 runs
// alone and commits n one-fact transactions, each shipping one datagram to
// each peer that queues, untouched, on its never-started memnet endpoint.
func newInboundRig(t *testing.T, policy core.PolicyConfig, n int) *inboundRig {
	t.Helper()
	aside := func(c *core.Cluster) []engine.Fact {
		return append(peerFacts(c, advReceiver, advBystander),
			engine.Fact{Pred: "aside", Tuple: datalog.Tuple{datalog.Prin(c.Principals[advBystander])}})
	}
	return recordRig(t, policy, adversaryQuery, aside, n, func(i int) []engine.Fact {
		return []engine.Fact{{Pred: "msg", Tuple: datalog.Tuple{datalog.Int64(int64(100 + i))}}}
	})
}

// recordRig builds the deployment over query and records n datagrams from p0
// to p1: p0 commits the setup facts, then the n transactions txn(0) to
// txn(n-1), each of which must ship exactly one datagram to p1.
func recordRig(t *testing.T, policy core.PolicyConfig, query string, setup func(*core.Cluster) []engine.Fact, n int, txn func(i int) []engine.Fact) *inboundRig {
	t.Helper()
	policy.Delegation = core.DelegateNone // the query imports its says itself
	c, err := core.NewCluster(core.ClusterConfig{N: 3, Policy: policy, Query: query, Seed: 5})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(c.Stop)
	r := &inboundRig{c: c}
	r.vpool, r.spool = policy.Memos()
	sender := c.Nodes[advSender]
	if _, err := sender.WS.Assert(setup(c)); err != nil {
		t.Fatalf("sender setup: %v", err)
	}
	sender.Start()
	inbox := c.MemNet().Endpoint(c.Addrs[advReceiver]).Receive()
	for i := 0; i < n; i++ {
		sender.Assert(txn(i))
		select {
		case m := <-inbox:
			r.honest = append(r.honest, m)
		case <-time.After(10 * time.Second):
			t.Fatalf("sender shipped %d of %d datagrams (violations: %v)", i, n, sender.Violations())
		}
	}
	return r
}

// peerFacts names the given principals as the sender's peers.
func peerFacts(c *core.Cluster, idx ...int) []engine.Fact {
	var facts []engine.Fact
	for _, i := range idx {
		facts = append(facts, engine.Fact{Pred: "peer", Tuple: datalog.Tuple{datalog.Prin(c.Principals[i])}})
	}
	return facts
}

// assemble builds a fresh p1 over a scripted endpoint, not yet started.
func (r *inboundRig) assemble(t *testing.T) (*dist.Node, *transporttest.Scripted) {
	t.Helper()
	ep := transporttest.NewScripted(r.c.Addrs[advReceiver])
	n, err := core.NodeAssembly{
		Policy:     r.c.Cfg.Policy,
		Program:    r.c.Program,
		Directory:  r.c.Directory,
		Index:      advReceiver,
		KeyStore:   r.c.KeyStores[advReceiver],
		Endpoint:   ep,
		VerifyPool: r.vpool,
		SignPool:   r.spool,
		Seed:       r.c.Cfg.Seed,
	}.Build()
	if err != nil {
		t.Fatalf("assemble receiver: %v", err)
	}
	t.Cleanup(n.Stop)
	return n, ep
}

// receiver is assemble plus Start.
func (r *inboundRig) receiver(t *testing.T) (*dist.Node, *transporttest.Scripted) {
	t.Helper()
	n, ep := r.assemble(t)
	n.Start()
	return n, ep
}

// forgery names one way of corrupting an honest datagram.
type forgery string

const (
	forgedSignature   forgery = "forged-signature"
	truncatedEnvelope forgery = "truncated-envelope"
	spoofedFrom       forgery = "spoofed-from"
	spoofedSelf       forgery = "spoofed-self" // claims the receiver's own address

	// What only a batch envelope can suffer: damage to the fields that place
	// it in its signing group.
	tamperedSibling   forgery = "tampered-sibling"
	wrongPosition     forgery = "wrong-position"
	positionBeyond    forgery = "position-beyond-group"
	siblingsTruncated forgery = "siblings-truncated"
	siblingsOverMax   forgery = "siblings-over-maxgroup"
)

// forgeries lists the corruptions that apply under a policy.
func forgeries(policy core.PolicyConfig) []forgery {
	all := []forgery{forgedSignature, truncatedEnvelope, spoofedFrom, spoofedSelf}
	if policy.BatchSign {
		all = append(all, tamperedSibling, wrongPosition, positionBeyond, siblingsTruncated, siblingsOverMax)
	}
	return all
}

// undecodable reports whether the receiver's decoder refuses the corruption,
// so the datagram is dropped unread instead of rolled back.
func (f forgery) undecodable() bool {
	return f == truncatedEnvelope || f == positionBeyond || f == siblingsOverMax
}

// forge returns a corrupted copy of an honest datagram. A forged signature is
// whatever the scheme checks, damaged: the envelope signature under
// RSA-batch, the payload's MAC or signature under HMAC and RSA — and, since
// NoAuth checks nothing, a value of the wrong type, the one thing its import
// rejects (a payload of the wrong arity matches no deserialize and is ignored
// without a violation).
func (r *inboundRig) forge(t *testing.T, m transport.InMsg, how forgery) transport.InMsg {
	t.Helper()
	if how == truncatedEnvelope {
		return transport.InMsg{From: m.From, Data: m.Data[:len(m.Data)/2]}
	}
	// The message views its datagram, and the honest ones are shared by every
	// scenario: forge on a copy.
	msg, err := wire.DecodeMessage(bytes.Clone(m.Data))
	if err != nil {
		t.Fatalf("honest datagram does not decode: %v", err)
	}
	if msg.Kind == wire.MsgBatch && len(msg.Siblings) != wire.DigestSize {
		t.Fatalf("honest envelope carries %d sibling bytes, want a group of two", len(msg.Siblings))
	}
	switch policy := r.c.Cfg.Policy; {
	case how == spoofedFrom:
		msg.From = r.c.Addrs[advBystander]
	case how == spoofedSelf:
		msg.From = r.c.Addrs[advReceiver]
	case how == tamperedSibling:
		msg.Siblings[wire.DigestSize/2] ^= 0xFF
	case how == wrongPosition:
		msg.Pos = 1 - msg.Pos
	case how == positionBeyond:
		msg.Pos = 2
	case how == siblingsTruncated:
		msg.Pos, msg.Siblings = 0, nil // claims to be a group of one
	case how == siblingsOverMax:
		msg.Siblings = make([]byte, wire.MaxGroup*wire.DigestSize)
	case policy.BatchSign:
		msg.Sig[len(msg.Sig)/2] ^= 0xFF
	default:
		run := msg.Run
		p, err := wire.DecodePayload(run.Next())
		if err != nil {
			t.Fatalf("honest payload does not decode: %v", err)
		}
		if policy.Auth == core.AuthNone {
			p.Vals[len(p.Vals)-1] = datalog.String_("not an int")
		} else {
			p.Sig[len(p.Sig)/2] ^= 0xFF
		}
		msg.Run = wire.Run{}.Append(wire.EncodePayload(p))
		for run.N > 0 {
			msg.Run = msg.Run.Append(run.Next())
		}
	}
	return transport.InMsg{From: m.From, Data: wire.EncodeMessage(msg)}
}

// probeMsg is a termination probe for the given wave.
func probeMsg(wave uint64) transport.InMsg {
	return controlMsg(wire.Control{Type: wire.CtrlProbe, Wave: wave})
}

// controlMsg is a control record from where the tests' probes come from.
func controlMsg(c wire.Control) transport.InMsg {
	return transport.InMsg{From: advProbeFrom, Data: wire.ControlMessage(advProbeFrom, c)}
}

// awaitReport waits for the node's answer to the probe of the given wave and
// returns it with its position among the datagrams the endpoint recorded.
func awaitReport(t *testing.T, ep *transporttest.Scripted, wave uint64) (wire.Control, int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		for i, s := range ep.Sent() {
			if c, err := wire.ReadControl(s.Data); err == nil && c.Type == wire.CtrlReport && c.Wave == wave {
				return c, i
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no report for probe wave %d", wave)
		}
		time.Sleep(time.Millisecond)
	}
}

// inboundOutcome is everything a receiver's handling of an inbound sequence
// can be observed by.
type inboundOutcome struct {
	violations int
	db         string   // every predicate's extent
	shipped    []string // the distinct (destination, payload) pairs put on the wire
	report     wire.Control
	runs       int64 // inbound transactions committed
}

// settle drains the node, takes a final probe report and collects the outcome.
func settle(t *testing.T, n *dist.Node, ep *transporttest.Scripted, finalWave uint64) inboundOutcome {
	t.Helper()
	ep.Deliver(probeMsg(finalWave))
	report, _ := awaitReport(t, ep, finalWave)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := inboundOutcome{violations: len(n.Violations()), report: report}
	out.runs = n.Txns()
	var db []string
	for _, pred := range n.WS.Predicates() {
		for _, tp := range n.WS.Tuples(pred) {
			db = append(db, pred+tp.String())
		}
	}
	sort.Strings(db)
	out.db = strings.Join(db, "\n")
	seen := map[string]bool{}
	for _, s := range ep.Sent() {
		msg, err := wire.DecodeMessage(s.Data)
		if err != nil {
			t.Fatalf("node sent an undecodable datagram: %v", err)
		}
		if msg.Kind == wire.MsgControl {
			continue
		}
		for run := msg.Run; run.N > 0; {
			if k := s.To + "|" + string(run.Next()); !seen[k] {
				seen[k] = true
				out.shipped = append(out.shipped, k)
			}
		}
	}
	sort.Strings(out.shipped)
	return out
}

// oneAtATime applies the datagrams as the parent runtime did — one hand-off,
// hence one transaction, per datagram — and returns the outcome: the
// reference every merged run is compared against.
func (r *inboundRig) oneAtATime(t *testing.T, seq []transport.InMsg) inboundOutcome {
	t.Helper()
	n, ep := r.receiver(t)
	for i, m := range seq {
		ep.Deliver(m)
		waitProcessed(t, n, int64(i+1))
	}
	return settle(t, n, ep, 1000)
}

// sameOutcome fails the test unless a merged run left the node exactly where
// one-at-a-time application leaves it.
func sameOutcome(t *testing.T, got, want inboundOutcome) {
	t.Helper()
	if got.violations != want.violations {
		t.Errorf("%d violations, one at a time %d", got.violations, want.violations)
	}
	if got.db != want.db {
		t.Errorf("database differs from one-at-a-time application:\n--- merged ---\n%s\n--- one at a time ---\n%s", got.db, want.db)
	}
	if fmt.Sprint(got.shipped) != fmt.Sprint(want.shipped) {
		t.Errorf("shipped payload set differs: %d payloads, one at a time %d", len(got.shipped), len(want.shipped))
	}
	if fmt.Sprint(peerRecv(got.report)) != fmt.Sprint(peerRecv(want.report)) {
		t.Errorf("per-peer recv counters %v, one at a time %v", peerRecv(got.report), peerRecv(want.report))
	}
}

// totals sums a report's per-peer cells.
func totals(c wire.Control) (sent, recv uint64) {
	for _, p := range c.Peers {
		sent += p.Sent
		recv += p.Recv
	}
	return sent, recv
}

// peerRecv projects a report's per-peer cells onto the receive side (the
// send side counts datagrams, which merging exists to reduce).
func peerRecv(c wire.Control) map[string]uint64 {
	out := map[string]uint64{}
	for _, p := range c.Peers {
		out[p.Addr] = p.Recv
	}
	return out
}

var inboundSchemes = []core.PolicyConfig{
	{Auth: core.AuthNone},
	{Auth: core.AuthHMAC},
	{Auth: core.AuthRSA},
	{Auth: core.AuthRSA, BatchSign: true},
}

// TestMergedInboundRunIsolatesForgeries: a run of honest datagrams with one
// corrupted one among them, handed to the loop as a single backlog with a
// termination probe queued behind it, ends exactly where applying the same
// datagrams one transaction at a time ends — same violations, same database,
// same shipped payloads, same receive counters — under every
// scheme and for every kind and position of corruption. The probe is answered
// only after the run: its report already counts every datagram of the run as
// received and every completed send as sent.
func TestMergedInboundRunIsolatesForgeries(t *testing.T) {
	const n = 8
	for _, policy := range inboundSchemes {
		t.Run(policy.Name(), func(t *testing.T) {
			rig := newInboundRig(t, policy, n)
			for _, how := range forgeries(policy) {
				for _, pos := range []int{0, n / 2, n - 1} {
					t.Run(fmt.Sprintf("%s@%d", how, pos), func(t *testing.T) {
						seq := append([]transport.InMsg(nil), rig.honest...)
						seq[pos] = rig.forge(t, seq[pos], how)
						want := rig.oneAtATime(t, seq)

						fallbacks := obs.Default().CounterValue("sbx_inbound_run_fallbacks_total")
						runSizes := obs.Default().HistogramSnapshot("sbx_inbound_run_messages")
						node, ep := rig.receiver(t)
						ep.Deliver(append(append([]transport.InMsg(nil), seq...), probeMsg(1))...)
						report, at := awaitReport(t, ep, 1)
						got := settle(t, node, ep, 2)
						sameOutcome(t, got, want)
						fallbacks = obs.Default().CounterValue("sbx_inbound_run_fallbacks_total") - fallbacks
						runSizes = obs.Default().HistogramSnapshot("sbx_inbound_run_messages").Sub(runSizes)

						sent, recv := totals(report)
						if recv != n {
							t.Errorf("probe behind the run saw %d of its %d datagrams counted", recv, n)
						}
						if !report.Active {
							// A passive report promises that nothing is in
							// flight: every datagram the run caused is on the
							// wire already and counted.
							data := 0
							for _, s := range ep.Sent()[:at] {
								if m, err := wire.DecodeMessage(s.Data); err == nil && m.Kind != wire.MsgControl {
									data++
								}
							}
							if end, _ := totals(got.report); data == 0 || sent != uint64(data) || sent != end {
								t.Errorf("passive report counts %d sends with %d datagrams on the wire before it and %d at the end",
									sent, data, end)
							}
						}

						// What the corruption must cost, whatever the merge
						// did: a bad signature (or type) is one violation and
						// one missing import — and so is a batch envelope that
						// misstates its group, because the root it vouches for
						// is not the one that was signed; an envelope the
						// decoder refuses is dropped unread; a spoofed source
						// fails every scheme that authenticates and is believed
						// by the one that does not. A datagram claiming the
						// receiver's own address imports nothing under any
						// scheme — a node never exports to itself — and only
						// RSA-batch, whose envelope check covers every
						// datagram, also counts it as a violation.
						wantViolations, wantInbox, decoded := 1, n-1, n
						switch {
						case how.undecodable():
							wantViolations, decoded = 0, n-1
						case how == spoofedFrom && policy.Auth == core.AuthNone:
							wantViolations, wantInbox = 0, n
						case how == spoofedSelf && !policy.BatchSign:
							wantViolations = 0
						}
						if got.violations != wantViolations {
							t.Errorf("%d violations, want %d: %v", got.violations, wantViolations, node.Violations())
						}
						if c := node.WS.Count("inbox"); c != wantInbox {
							t.Errorf("%d of %d datagrams committed, want %d", c, n, wantInbox)
						}
						// And what the one surface says about it: a rejected
						// merge is one fallback and n single-datagram attempts,
						// a clean backlog one transaction of every datagram
						// that decoded.
						if wantViolations > 0 {
							if got.runs != int64(wantInbox) {
								t.Errorf("rejected merge left %d transactions, want one per honest datagram (%d)", got.runs, wantInbox)
							}
							if fallbacks != 1 || runSizes.Count != n || runSizes.Sum != n {
								t.Errorf("metrics after a rejected merge: %d fallbacks, %d runs of %v datagrams in all", fallbacks, runSizes.Count, runSizes.Sum)
							}
						} else {
							if got.runs != 1 {
								t.Errorf("clean backlog committed as %d transactions, want 1", got.runs)
							}
							if fallbacks != 0 || runSizes.Count != 1 || runSizes.Sum != float64(decoded) {
								t.Errorf("metrics after a clean merge: %d fallbacks, %d runs of %v datagrams in all", fallbacks, runSizes.Count, runSizes.Sum)
							}
						}
					})
				}
			}
		})
	}
}

// TestMergedInboundRunTwoForgeries: two forged datagrams in one run are two
// violations, each rolled back alone.
func TestMergedInboundRunTwoForgeries(t *testing.T) {
	const n = 8
	for _, policy := range inboundSchemes {
		t.Run(policy.Name(), func(t *testing.T) {
			rig := newInboundRig(t, policy, n)
			seq := append([]transport.InMsg(nil), rig.honest...)
			seq[2] = rig.forge(t, seq[2], forgedSignature)
			seq[5] = rig.forge(t, seq[5], forgedSignature)
			want := rig.oneAtATime(t, seq)
			node, ep := rig.receiver(t)
			ep.Deliver(seq...)
			got := settle(t, node, ep, 1)
			sameOutcome(t, got, want)
			if got.violations != 2 {
				t.Errorf("%d violations, want 2: %v", got.violations, node.Violations())
			}
			if c := node.WS.Count("inbox"); c != n-2 {
				t.Errorf("%d datagrams committed, want %d", c, n-2)
			}
		})
	}
}

// TestEvictionInsideABacklogDropsTheRest: an eviction that takes effect while
// a backlog is being applied — here through a CtrlEvict record queued between
// the peer's datagrams, applied by the hook the way the cluster runtime does —
// cuts the peer off from that point: the datagrams before it are counted and
// committed, the ones after it are dropped uncounted, in the same hand-off.
func TestEvictionInsideABacklogDropsTheRest(t *testing.T) {
	const n, before = 8, 3
	rig := newInboundRig(t, core.PolicyConfig{}, n)
	peer := rig.honest[0].From
	node, ep := rig.assemble(t)
	node.OnControl = func(_ string, c wire.Control) {
		for _, m := range c.Members {
			node.Evict(m.Addr)
		}
	}
	node.Start()

	seq := append([]transport.InMsg(nil), rig.honest[:before]...)
	seq = append(seq, controlMsg(wire.Control{Type: wire.CtrlEvict, Cluster: "inbound",
		Members: []wire.MemberInfo{{Principal: rig.c.Principals[advSender], Addr: peer}}}))
	seq = append(seq, rig.honest[before:]...)
	ep.Deliver(seq...)
	out := settle(t, node, ep, 1)
	if _, recv := totals(out.report); recv != before || peerRecv(out.report)[peer] != before {
		t.Errorf("recv counters %d / %v with an eviction behind %d datagrams", recv, peerRecv(out.report), before)
	}
	if c := node.WS.Count("inbox"); c != before {
		t.Errorf("%d datagrams committed, want the %d before the eviction", c, before)
	}
	if got := node.MsgsRecv(); got != before {
		t.Errorf("%d datagrams in the traffic metrics, want %d: an evicted peer's stragglers are uncounted", got, before)
	}
}

// TestOnlyDecodedControlRecordsReachOnControl: the node decodes a control
// payload once and answers probes itself. A payload that does not decode and
// a stray report stop there; every other record reaches the hook decoded.
func TestOnlyDecodedControlRecordsReachOnControl(t *testing.T) {
	rig := newInboundRig(t, core.PolicyConfig{}, 0)
	node, ep := rig.assemble(t)
	var mu sync.Mutex
	var got []wire.Control
	node.OnControl = func(_ string, c wire.Control) {
		mu.Lock()
		got = append(got, c)
		mu.Unlock()
	}
	node.Start()

	evict := wire.Control{Type: wire.CtrlEvict, Cluster: "inbound",
		Members: []wire.MemberInfo{{Principal: rig.c.Principals[advBystander], Addr: rig.c.Addrs[advBystander]}}}
	ep.Deliver(
		transport.InMsg{From: advProbeFrom, Data: wire.EncodeMessage(wire.Message{
			Kind: wire.MsgControl, From: advProbeFrom, Payloads: [][]byte{[]byte("garbage, not a control record")},
		})},
		controlMsg(wire.Control{Type: wire.CtrlReport, Wave: 3, Peers: []wire.PeerCount{{Addr: "10.0.0.1:7000", Sent: 1}}}),
		controlMsg(evict),
	)
	settle(t, node, ep, 1)
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || !reflect.DeepEqual(got[0], evict) {
		t.Fatalf("the hook saw %+v, want only the eviction record %+v", got, evict)
	}
}

// TestMergedRunKeepsEveryParentInTheTrace: a merged transaction has several
// parents. Its fixpoint span (and what it ships) continues the first
// datagram's wave at the deepest hop of the run and says how many datagrams it
// absorbed; every datagram keeps a decode span under its own trace, and the
// absorbed ones name the trace their wave went on in.
func TestMergedRunKeepsEveryParentInTheTrace(t *testing.T) {
	const n = 5
	rig := newInboundRig(t, core.PolicyConfig{}, n)
	base := obs.NewTraceID() + 1<<20 // clear of anything this process mints meanwhile
	seq := make([]transport.InMsg, n)
	for i, m := range rig.honest {
		msg, err := wire.DecodeMessage(m.Data)
		if err != nil {
			t.Fatal(err)
		}
		msg.Trace, msg.Hop = base+uint64(i), uint32(1+(i*3)%n) // hops 1,4,2,5,3: the deepest is not the first
		seq[i] = transport.InMsg{From: m.From, Data: wire.EncodeMessage(msg)}
	}
	node, ep := rig.receiver(t)
	ep.Deliver(seq...)
	settle(t, node, ep, 1)

	byStage := map[string][]obs.Span{}
	for _, s := range obs.Spans() {
		if s.Node == rig.c.Addrs[advReceiver] && s.Trace >= base && s.Trace < base+n {
			byStage[s.Stage] = append(byStage[s.Stage], s)
		}
	}
	if fx := byStage[obs.StageFixpoint]; len(fx) != 1 || fx[0].Trace != base || fx[0].Hop != n || fx[0].Absorbed != n {
		t.Errorf("fixpoint spans of the run: %+v, want one under trace %d at hop %d absorbing %d", fx, base, n, n)
	}
	if len(byStage[obs.StageShip]) == 0 {
		t.Error("the merged transaction's ship span does not carry the adopted trace")
	}
	for _, s := range byStage[obs.StageShip] {
		if s.Trace != base || s.Hop != n {
			t.Errorf("ship span under trace %d hop %d, want the adopted %d at hop %d", s.Trace, s.Hop, base, n)
		}
	}
	dec := byStage[obs.StageDecode]
	if len(dec) != n {
		t.Fatalf("%d decode spans for %d datagrams", len(dec), n)
	}
	sort.Slice(dec, func(i, j int) bool { return dec[i].Trace < dec[j].Trace })
	for i, s := range dec {
		wantInto := base
		if i == 0 {
			wantInto = 0
		}
		if s.Trace != base+uint64(i) || s.Hop != 1+(i*3)%n || s.Into != wantInto {
			t.Errorf("decode span %d: trace %d hop %d into %d, want trace %d hop %d into %d",
				i, s.Trace, s.Hop, s.Into, base+uint64(i), 1+(i*3)%n, wantInto)
		}
	}
	// The outbound envelope is stamped with the adopted wave, one hop on.
	for _, s := range ep.Sent() {
		if m, err := wire.DecodeMessage(s.Data); err == nil && m.Kind != wire.MsgControl {
			if m.Trace != base || m.Hop != n+1 {
				t.Errorf("shipped envelope stamped trace %d hop %d, want %d hop %d", m.Trace, m.Hop, base, n+1)
			}
		}
	}
}

package dist_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/dist"
	"secureblox/internal/engine"
	"secureblox/internal/transport"
	"secureblox/internal/transport/transporttest"
	"secureblox/internal/wire"
)

// datagramOf is a data datagram from addrA carrying k distinct payloads of
// size bytes, the first eight bytes of each its serial number.
func datagramOf(serial, k, size int) transport.InMsg {
	payloads := make([][]byte, k)
	for i := range payloads {
		p := make([]byte, size)
		binary.BigEndian.PutUint64(p, uint64(serial*k+i))
		payloads[i] = p
	}
	return transport.InMsg{From: addrA, Data: wire.EncodeMessage(wire.Message{From: addrA, Payloads: payloads})}
}

// settled waits until the node has taken in want datagrams and committed them.
func settled(t *testing.T, n *dist.Node, want int64) {
	t.Helper()
	waitProcessed(t, n, want)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// heardDecls is a receiver whose import reads every payload and keeps none of
// it: heard records who sent one, guarded holds an import that needs a fact
// to complete it.
const heardDecls = `
	heard(L) -> node(L).
	heard(L) <- export(N, L, Pkt), principal_node[self[]]=N.
	admitted(L) -> node(L).
	guarded(Pkt) -> bytes(Pkt).
	guarded(Pkt) <- export(N, L, Pkt), principal_node[self[]]=N, admitted(L).
`

// TestInboundDatagramCopiesEachPayloadOnce: from the endpoint's hand-off to the
// commit — decode, admission into the run, the transaction that asserts each
// payload as a transient export fact and imports it — a datagram of k payloads
// costs one copy of each payload a rule keeps, into the workspace's intern
// table, and none of one the rules only read, and little beyond it: the
// decoder's messages view the datagram, the run's facts are windows of one
// reused value buffer, and the workspace views each payload in the datagram
// until the transaction ends.
func TestInboundDatagramCopiesEachPayloadOnce(t *testing.T) {
	const n, k, size = 200, 8, 4000
	for _, c := range []struct {
		name, program string
		lo, hi        float64 // bytes per payload
		pred          string  // what the import leaves, and how many rows
		rows          int
	}{
		{"kept", testDecls, size, size * 9 / 8, "got", (n + 1) * k},
		{"read", heardDecls, 0, size / 16, "heard", 1},
	} {
		ep := transporttest.NewScripted(addrB)
		b := nodeRunning(t, "b", addrB, map[string]string{"a": addrA}, c.program, ep)
		b.Start()
		t.Cleanup(b.Stop)
		msgs := make([]transport.InMsg, n+1) // built outside the measurement, as the transport builds them
		for i := range msgs {
			msgs[i] = datagramOf(i, k, size)
		}
		ep.Deliver(msgs[0])
		settled(t, b, 1)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i, m := range msgs[1:] {
			ep.Deliver(m)
			settled(t, b, int64(i+2))
		}
		runtime.ReadMemStats(&m1)
		if got := b.WS.Count(c.pred); got != c.rows {
			t.Fatalf("%s: %d %s rows, want %d (violations: %v)", c.name, got, c.pred, c.rows, b.Violations())
		}
		perPayload := float64(m1.TotalAlloc-m0.TotalAlloc) / (n * k)
		t.Logf("%s: %.0f bytes, %.2f allocations per %d-byte payload", c.name, perPayload, float64(m1.Mallocs-m0.Mallocs)/(n*k), size)
		if perPayload < c.lo || perPayload > c.hi {
			t.Errorf("%s: an inbound payload of %d bytes costs %.0f bytes from decode through commit, want %.0f to %.0f",
				c.name, size, perPayload, c.lo, c.hi)
		}
		if got := b.WS.Count("export"); got != 0 {
			t.Errorf("%s: the receiver holds %d export rows, want none", c.name, got)
		}
	}
}

// TestInboundPayloadsAreAChannel: 10 000 distinct datagrams, in merged runs,
// leave a receiver whose import keeps nothing of a payload with no export row,
// not one more text in its intern table and no more live heap than a warm-up
// of 1 000 left, within a fixed bound of a fiftieth of the payload bytes they
// carried: each datagram's facts, rows and text lived for its transaction.
func TestInboundPayloadsAreAChannel(t *testing.T) {
	const warm, n, run, size = 1000, 10000, 100, 256
	ep := transporttest.NewScripted(addrB)
	b := nodeRunning(t, "b", addrB, map[string]string{"a": addrA}, heardDecls, ep)
	b.Start()
	t.Cleanup(b.Stop)
	deliver := func(from, to int) {
		for i := from; i < to; i += run {
			msgs := make([]transport.InMsg, min(run, to-i))
			for j := range msgs {
				msgs[j] = datagramOf(i+j, 1, size)
			}
			ep.Deliver(msgs...)
		}
		settled(t, b, int64(to))
	}
	deliver(0, warm)
	syms, heap := b.WS.Symbols(), liveHeap()
	deliver(warm, warm+n)
	if v := b.Violations(); len(v) != 0 || b.WS.Count("heard") != 1 {
		t.Fatalf("heard %v (violations: %v)", b.WS.Tuples("heard"), v)
	}
	if got := b.WS.Count("export"); got != 0 {
		t.Errorf("%d inbound datagrams left %d export rows, want none", n, got)
	}
	if got := b.WS.Symbols(); got != syms {
		t.Errorf("the intern table went from %d to %d texts, want no payload's", syms, got)
	}
	grew := liveHeap() - heap
	t.Logf("live heap grew by %d bytes over %d payload bytes", grew, n*size)
	if grew > n*size/50 {
		t.Errorf("the live heap grew by %d bytes over %d payload bytes, want at most %d", grew, n*size, n*size/50)
	}
}

// TestInboundPayloadImportsOnlyInItsTransaction: a payload whose import needs
// a fact that arrives only after it imports nothing — the Dedalus reading of
// an asynchronous head, which holds at the receiver for one step — and one
// that arrives after the fact imports.
func TestInboundPayloadImportsOnlyInItsTransaction(t *testing.T) {
	ep := transporttest.NewScripted(addrB)
	b := nodeRunning(t, "b", addrB, map[string]string{"a": addrA}, heardDecls, ep)
	b.Start()
	t.Cleanup(b.Stop)
	ep.Deliver(datagramOf(1, 1, 16))
	settled(t, b, 1)
	b.Assert([]engine.Fact{{Pred: "admitted", Tuple: datalog.Tuple{datalog.NodeV(addrA)}}})
	settled(t, b, 1)
	if !b.WS.Contains("admitted", datalog.Tuple{datalog.NodeV(addrA)}) {
		t.Fatal("the admitting fact was not committed")
	}
	if got := b.WS.Count("guarded"); got != 0 {
		t.Errorf("a later fact imported %d earlier payloads, want none", got)
	}
	ep.Deliver(datagramOf(2, 1, 16))
	settled(t, b, 2)
	if got := b.WS.Count("guarded"); got != 1 {
		t.Errorf("the payload after the admitting fact imported %d rows, want 1", got)
	}
}

// liveHeap is the heap a collection leaves.
func liveHeap() int {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int(m.HeapAlloc)
}

// TestDuplicatedDatagramCommitsOnceAndStaysIntact: one datagram buffer
// delivered twice — what a chaos dup does over memnet, which hands the
// receiver the sender's very buffer each time — imports its payloads once and
// is echoed once, whether the copies arrive in two hand-offs or in one merged
// run; and since every decoded payload views the buffer, nothing on the way
// from decode to commit may write to it: it is byte-for-byte what was sent.
func TestDuplicatedDatagramCommitsOnceAndStaysIntact(t *testing.T) {
	for _, merged := range []bool{false, true} {
		ep := transporttest.NewScripted(addrB)
		b := nodeOverEndpoint(t, "b", addrB, map[string]string{"a": addrA}, echoRule, ep)
		b.Start()
		t.Cleanup(b.Stop)
		m := datagramOf(1, 3, 64)
		sent := bytes.Clone(m.Data)
		if merged {
			ep.Deliver(m, m)
		} else {
			ep.Deliver(m)
			settled(t, b, 1)
			ep.Deliver(m)
		}
		settled(t, b, 2)
		if got := b.WS.Count("got"); got != 3 || len(b.Violations()) != 0 {
			t.Errorf("merged %v: %d payloads imported, want 3 (violations: %v)", merged, got, b.Violations())
		}
		if echoes := len(ep.Sent()); echoes != 1 {
			t.Errorf("merged %v: the node shipped %d datagrams for one datagram delivered twice, want 1", merged, echoes)
		}
		if !bytes.Equal(m.Data, sent) {
			t.Errorf("merged %v: the delivered datagram changed under the node", merged)
		}
	}
}

// noteQuery ships text: p0 says every note to its peers, and a receiver keeps
// what it imports — the says row and noted — so the text it stores came off
// the wire.
const noteQuery = `
	note(S, L) -> string(S), node(L).
	noted(S, L) -> string(S), node(L).
	peer(U) -> principal(U).
	exportable('note).
	says['note](self[], U, S, L) <- note(S, L), peer(U).
	noted(S, L) <- says['note](U, self[], S, L).
`

// noteRig records d datagrams from p0 to p1 under policy, each carrying m
// notes whose texts appear nowhere else.
func noteRig(t *testing.T, policy core.PolicyConfig, d, m int) *inboundRig {
	t.Helper()
	peer := func(c *core.Cluster) []engine.Fact { return peerFacts(c, advReceiver) }
	r := recordRig(t, policy, noteQuery, peer, d, func(i int) []engine.Fact {
		facts := make([]engine.Fact, m)
		for j := range facts {
			k := i*m + j
			facts[j] = engine.Fact{Pred: "note", Tuple: datalog.Tuple{
				datalog.String_(fmt.Sprintf("note %05d", k)), datalog.NodeV(fmt.Sprintf("10.9.%d.%d:7000", k/250, k%250))}}
		}
		return facts
	})
	for i, h := range r.honest {
		if msg, err := wire.DecodeMessage(h.Data); err != nil || msg.Run.N != m {
			t.Fatalf("datagram %d carries %d payloads, want %d (%v)", i, msg.Run.N, m, err)
		}
	}
	return r
}

// database renders every extent of the node's workspace, sorted.
func database(n *dist.Node) string {
	var db []string
	for _, pred := range n.WS.Predicates() {
		for _, tp := range n.WS.Tuples(pred) {
			db = append(db, pred+tp.String())
		}
	}
	sort.Strings(db)
	return strings.Join(db, "\n")
}

// TestImportedTextOutlivesItsDatagram: the decoder hands out text as views of
// the payload (wire.ReadValue), and under NoAuth the payload is a view of the
// datagram, under NoAuth-AES the plaintext a decryption UDF returned. Either
// way what a rule keeps — here a string and a node address per note — is the
// workspace's own copy: overwriting every delivered datagram after its
// transaction leaves every stored row as it was.
func TestImportedTextOutlivesItsDatagram(t *testing.T) {
	const d, m = 4, 5
	for _, policy := range []core.PolicyConfig{{Auth: core.AuthNone}, {Auth: core.AuthNone, Encrypt: true}} {
		t.Run(policy.Name(), func(t *testing.T) {
			rig := noteRig(t, policy, d, m)
			node, ep := rig.receiver(t)
			delivered := make([]transport.InMsg, d)
			for i, h := range rig.honest {
				delivered[i] = transport.InMsg{From: h.From, Data: bytes.Clone(h.Data)}
			}
			ep.Deliver(delivered[:d/2]...) // one merged run
			settled(t, node, d/2)
			for i, msg := range delivered[d/2:] { // one transaction each
				ep.Deliver(msg)
				settled(t, node, int64(d/2+i+1))
			}
			if got := node.WS.Count("noted"); got != d*m || len(node.Violations()) != 0 {
				t.Fatalf("%d notes imported, want %d (violations: %v)", got, d*m, node.Violations())
			}
			if !node.WS.Contains("noted", datalog.Tuple{datalog.String_("note 00007"), datalog.NodeV("10.9.0.7:7000")}) {
				t.Fatalf("note 7 imported wrong: %v", node.WS.Tuples("noted"))
			}
			before := database(node)
			for _, msg := range delivered {
				for i := range msg.Data {
					msg.Data[i] = 0xA5
				}
			}
			if after := database(node); after != before {
				t.Errorf("overwriting the delivered datagrams changed the stored rows:\n--- before ---\n%s\n--- after ---\n%s", before, after)
			}
		})
	}
}

// TestAdmissionCostDoesNotGrowWithPayloads: a merged run of d datagrams of m
// payloads each, delivered a second time, so that it keeps no row and finds
// the workspace's transient relation already grown to its size: what the
// repeat allocates does not grow with m — the decoded message's run is a view
// of the datagram, walked in place, no Go fact or value is made per payload
// on the way into the transaction, and the text the import decodes is not
// copied. Measured per datagram at m = 1 and m = 500, under NoAuth and
// RSA-batch (two facts per payload); 4 bytes per payload is the ceiling, a
// sixth of a slice header per payload. Each cost is the least of three
// repeats, which keeps out what other goroutines allocate meanwhile.
func TestAdmissionCostDoesNotGrowWithPayloads(t *testing.T) {
	const d, perPayload, reps = 2, 4, 3
	for _, policy := range []core.PolicyConfig{{Auth: core.AuthNone}, {Auth: core.AuthRSA, BatchSign: true}} {
		t.Run(policy.Name(), func(t *testing.T) {
			var cost [2]float64 // bytes per datagram at m = 1 and m = 500
			for i, m := range []int{1, 500} {
				rig := noteRig(t, policy, d, m)
				node, ep := rig.receiver(t)
				ep.Deliver(rig.honest...)
				settled(t, node, d)
				if got := node.WS.Count("noted"); got != d*m || len(node.Violations()) != 0 {
					t.Fatalf("m=%d: %d notes imported, want %d (violations: %v)", m, got, d*m, node.Violations())
				}
				cost[i] = math.Inf(1)
				for rep := range reps {
					txns := node.Txns()
					var m0, m1 runtime.MemStats
					runtime.ReadMemStats(&m0)
					ep.Deliver(rig.honest...)
					settled(t, node, int64(rep+2)*d)
					runtime.ReadMemStats(&m1)
					if got := node.Txns() - txns; got != 1 || len(node.Violations()) != 0 {
						t.Fatalf("m=%d: the run committed as %d transactions, want 1 (violations: %v)", m, got, node.Violations())
					}
					cost[i] = min(cost[i], float64(m1.TotalAlloc-m0.TotalAlloc)/d)
				}
				t.Logf("m=%d: %.0f bytes per datagram", m, cost[i])
			}
			if grew := (cost[1] - cost[0]) / 499; grew > perPayload {
				t.Errorf("each payload adds %.0f bytes to its datagram's admission, want at most %d (m=1: %.0f, m=500: %.0f bytes per datagram)",
					grew, perPayload, cost[0], cost[1])
			}
		})
	}
}

package dist_test

import (
	"context"
	"testing"
	"time"

	"secureblox/internal/datalog"
	"secureblox/internal/dist"
	"secureblox/internal/engine"
	"secureblox/internal/obs"
	"secureblox/internal/transport"
	"secureblox/internal/transport/transporttest"
	"secureblox/internal/wire"
)

// drain waits until n has applied its queued local work.
func drain(t *testing.T, n *dist.Node) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.Drain(ctx); err != nil {
		t.Fatalf("drain %s: %v", n.Principal, err)
	}
}

// TestNodeCountsInstanceAndFamilyViews pins the two promises a node's counts
// make. Two live nodes of one principal each read their own counts exactly
// while the registry families rise by the sum; and a node built after an
// earlier one is discarded starts at zero while the families keep growing —
// the pattern of a benchmark that rebuilds n0…n23 every repetition and takes
// before/after deltas of the families.
func TestNodeCountsInstanceAndFamilyViews(t *testing.T) {
	counters := []string{"sbx_msgs_sent_total", "sbx_bytes_sent_total", "sbx_msgs_recv_total",
		"sbx_bytes_recv_total", "sbx_violations_total", "sbx_txns_total"}
	family := obs.Default().CounterValue
	before := map[string]int64{}
	for _, name := range counters {
		before[name] = family(name)
	}
	histBefore := obs.Default().HistogramSnapshot("sbx_txn_duration_seconds")

	// a ships one payload to b, b echoes it back, and b rejects a batch: both
	// nodes run as principal "twin", each at its own address.
	net := transport.NewMemNetwork()
	a := newTestNode(t, net, "twin", addrA, nil, deriveRule)
	b := newTestNode(t, net, "twin", addrB, nil, echoRule)
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()
	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("twin payload"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(addrB)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	waitProcessed(t, a, 1) // the echo arrived
	drain(t, a)
	b.Assert([]engine.Fact{{Pred: "trigger", Tuple: datalog.Tuple{datalog.String_("not an int")}}})
	drain(t, b)

	type counts struct{ msgsSent, msgsRecv, txns, violations int64 }
	read := func(n *dist.Node) counts {
		return counts{n.MsgsSent(), n.MsgsRecv(), n.Txns(), int64(len(n.Violations()))}
	}
	// a: its own commit and the echo's import; b: the import that echoed.
	if got, want := read(a), (counts{1, 1, 2, 0}); got != want {
		t.Errorf("a reads %+v, want its own %+v", got, want)
	}
	if got, want := read(b), (counts{1, 1, 1, 1}); got != want {
		t.Errorf("b reads %+v, want its own %+v", got, want)
	}
	if a.BytesSent() == 0 || a.BytesSent() != b.BytesRecv() || b.BytesSent() != a.BytesRecv() {
		t.Errorf("bytes: a sent %d, b took in %d; b sent %d, a took in %d",
			a.BytesSent(), b.BytesRecv(), b.BytesSent(), a.BytesRecv())
	}
	for name, n := range map[string]*dist.Node{"a": a, "b": b} {
		if n.TxnTime() <= 0 || n.LastActivity().IsZero() {
			t.Errorf("%s: transaction time %v, last activity %v", name, n.TxnTime(), n.LastActivity())
		}
	}
	want := map[string]int64{"sbx_msgs_sent_total": 2, "sbx_bytes_sent_total": a.BytesSent() + b.BytesSent(),
		"sbx_msgs_recv_total": 2, "sbx_bytes_recv_total": a.BytesRecv() + b.BytesRecv(),
		"sbx_violations_total": 1, "sbx_txns_total": 3}
	for _, name := range counters {
		if got := family(name) - before[name]; got != want[name] {
			t.Errorf("%s rose by %d, want the sum over both nodes %d", name, got, want[name])
		}
	}
	if d := obs.Default().HistogramSnapshot("sbx_txn_duration_seconds").Sub(histBefore); d.Count != 3 {
		t.Errorf("sbx_txn_duration_seconds gained %d samples, want 3", d.Count)
	}

	// Rebuild: a new node of the same principal starts from zero and the
	// families do not.
	sink := net.Endpoint("10.0.0.9:7000")
	defer sink.Close()
	c := newTestNode(t, net, "twin", "10.0.0.3:7000", nil, deriveRule)
	if got := read(c); got != (counts{}) || c.BytesSent() != 0 || c.TxnTime() != 0 || !c.LastActivity().IsZero() {
		t.Errorf("a rebuilt node starts at %+v, want zero", got)
	}
	c.Start()
	defer c.Stop()
	c.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("after the rebuild"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(sink.Addr())}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	drain(t, c)
	if got := read(c); got != (counts{msgsSent: 1, txns: 1}) {
		t.Errorf("rebuilt node reads %+v, want one commit and one message", got)
	}
	if got, want := family("sbx_bytes_sent_total")-before["sbx_bytes_sent_total"],
		a.BytesSent()+b.BytesSent()+c.BytesSent(); got != want {
		t.Errorf("sbx_bytes_sent_total rose by %d across the rebuild, want %d", got, want)
	}
}

// TestOneFixpointSpanPerCommittedTransaction pins what the transaction-
// completion figures (paper Figures 10 and 11) read: a node records exactly
// one fixpoint span per committed transaction — merged local runs, the
// per-batch replay of a rejected merge, single and merged retractions, and
// merged inbound runs alike — none for a rejected batch or a malformed
// datagram, and as many as its sbx_txns_total child counts.
func TestOneFixpointSpanPerCommittedTransaction(t *testing.T) {
	obs.ResetSpans()
	ep := transporttest.NewScripted(addrA)
	n := nodeOverEndpoint(t, "spans", addrA, map[string]string{"b": addrB}, "", ep)
	pay := func(s string) []engine.Fact {
		return []engine.Fact{{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte(s))}}}
	}
	// Queued before Start, the local batches are applied as four runs: a
	// merged assert (one transaction), a retraction (one), a merged assert one
	// of whose batches is rejected (replayed: two commits and a violation),
	// and a merged retraction (one).
	n.Assert(pay("1"))
	n.Assert(pay("2"))
	n.Retract(pay("1"))
	n.Assert(pay("3"))
	n.Assert([]engine.Fact{{Pred: "trigger", Tuple: datalog.Tuple{datalog.String_("not an int")}}})
	n.Assert(pay("4"))
	n.Retract(pay("3"))
	n.Retract(pay("4"))
	n.Start()
	defer n.Stop()
	drain(t, n)

	// Inbound: three datagrams in one hand-off (one merged transaction), one
	// alone, and a malformed one (no transaction).
	data := func(s string) transport.InMsg {
		return transport.InMsg{From: addrB, Data: wire.EncodeMessage(wire.Message{From: addrB, Payloads: [][]byte{[]byte(s)}})}
	}
	ep.Deliver(data("in 1"), data("in 2"), data("in 3"))
	waitProcessed(t, n, 3)
	ep.Deliver(data("in 4"))
	waitProcessed(t, n, 4)
	ep.Deliver(transport.InMsg{From: addrB, Data: []byte("not a wire message")})
	out := settle(t, n, ep, 1)

	if out.violations != 1 {
		t.Errorf("%d violations, want the one rejected batch", out.violations)
	}
	if d := obs.SpanDrops(); d != 0 {
		t.Fatalf("span ring dropped %d spans", d)
	}
	var spans, absorbed int
	for _, sp := range obs.Spans() {
		if sp.Stage == obs.StageFixpoint && sp.Principal == n.Principal {
			spans++
			absorbed += max(sp.Absorbed, 1)
		}
	}
	const commits = 1 + 1 + 2 + 1 + 1 + 1
	if spans != commits || n.Txns() != commits {
		t.Errorf("%d fixpoint spans and %d counted transactions, want %d of each", spans, n.Txns(), commits)
	}
	// Merged runs carry how many units they absorbed: 2 asserts, 2
	// retractions and 3 datagrams in three spans, the rest one each.
	if want := 2 + 1 + 2 + 2 + 3 + 1; absorbed != want {
		t.Errorf("fixpoint spans absorbed %d units of work, want %d", absorbed, want)
	}
}

package dist_test

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"secureblox/internal/datalog"
	"secureblox/internal/dist"
	"secureblox/internal/engine"
	"secureblox/internal/transport"
	"secureblox/internal/transport/transporttest"
	"secureblox/internal/wire"
)

// testDecls is a minimal program exercising the runtime without the full
// policy stack: pay holds an opaque payload, dest the destination address,
// trigger fires the derivation, and got records successfully imported
// payloads.
const testDecls = `
	pay(P) -> bytes(P).
	trigger(X) -> int(X).
	dest(N) -> node(N).
	got(Pkt) -> bytes(Pkt).
	got(Pkt) <- export(N, L, Pkt), principal_node[self[]]=N.
`

// deriveRule turns any trigger into one export tuple per (pay, dest) pair.
// Distinct triggers re-derive the same tuples, which must not re-send.
const deriveRule = `
	export(N, L, Pkt) <- trigger(X), pay(Pkt), dest(N), principal_node[self[]]=L.
`

// echoRule bounces every received payload back to its origin.
const echoRule = `
	export(L, N, Pkt) <- export(N, L, Pkt), principal_node[self[]]=N.
`

const (
	addrA   = "10.0.0.1:7000"
	addrB   = "10.0.0.2:7000"
	addrDet = "10.0.0.99:7999" // the detector's own endpoint
)

// newTestNode builds a started-but-not-running node: workspace with the
// program installed, the principal directory asserted, the endpoint
// registered on net, and the termination counters scoped to the cluster
// addresses.
func newTestNode(t *testing.T, net *transport.MemNetwork, name, addr string, peers map[string]string, extra string) *dist.Node {
	t.Helper()
	return nodeOverEndpoint(t, name, addr, peers, extra, net.Endpoint(addr))
}

// newDetector wires a termination detector over its own memnet endpoint.
func newDetector(t *testing.T, net *transport.MemNetwork, nodes ...string) *dist.Detector {
	t.Helper()
	det := dist.NewDetector(net.Endpoint(addrDet), nodes)
	det.ReplyTimeout = 100 * time.Millisecond
	t.Cleanup(func() { det.Close() })
	return det
}

// waitFixpoint bounds Detector.Wait so a protocol bug fails the test
// instead of hanging it.
func waitFixpoint(t *testing.T, det *dist.Detector) {
	t.Helper()
	done := make(chan bool, 1)
	go func() { done <- det.Wait() }()
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("detector closed before termination")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("distributed termination not detected within 10s")
	}
}

// waitProcessed polls until the node has consumed at least want inbound
// datagrams — how tests synchronize with out-of-band injections that are
// invisible to the termination counters.
func waitProcessed(t *testing.T, n *dist.Node, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n.Metrics.MsgsProcessed() < want {
		if time.Now().After(deadline) {
			t.Fatalf("node processed %d messages, want %d", n.Metrics.MsgsProcessed(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTwoNodeExchangeReachesFixpoint(t *testing.T) {
	net := transport.NewMemNetwork()
	a := newTestNode(t, net, "a", addrA, map[string]string{"b": addrB}, deriveRule)
	b := newTestNode(t, net, "b", addrB, map[string]string{"a": addrA}, echoRule)
	det := newDetector(t, net, addrA, addrB)
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()

	payload := []byte("hello over the wire")
	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV(payload)}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(addrB)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	waitFixpoint(t, det)

	// B imported the payload; the echo rule bounced it back so A imported
	// it too — a two-hop distributed fixpoint.
	if got := b.WS.Count("got"); got != 1 {
		t.Errorf("node b: got %d imported payloads, want 1", got)
	}
	if got := a.WS.Count("got"); got != 1 {
		t.Errorf("node a: got %d echoed payloads, want 1", got)
	}
	for _, n := range []*dist.Node{a, b} {
		if tr := n.Metrics.Traffic(); tr.MsgsSent == 0 || tr.BytesSent == 0 {
			t.Errorf("%s: no traffic recorded (%+v)", n.Principal, tr)
		}
	}
	// The counters that drove detection must balance: every message A and
	// B shipped was processed.
	aSent, aRecv := a.Counters()
	bSent, bRecv := b.Counters()
	if aSent+bSent != aRecv+bRecv {
		t.Errorf("termination counters unbalanced at fixpoint: sent %d+%d, recv %d+%d",
			aSent, bSent, aRecv, bRecv)
	}
	if v := append(a.Violations(), b.Violations()...); len(v) != 0 {
		t.Errorf("unexpected violations: %v", v)
	}
}

// TestBacklogIsHandledLikeLiveTraffic: datagrams taken off the endpoint
// before the loop owned it (the cluster ready barrier's early traffic) are
// imported and counted exactly as if they had just arrived — the sender
// already counted them as sent.
func TestBacklogIsHandledLikeLiveTraffic(t *testing.T) {
	net := transport.NewMemNetwork()
	b := newTestNode(t, net, "b", addrB, map[string]string{"a": addrA}, "")
	payload := []byte("sent before b was released")
	b.Backlog = []transport.InMsg{{From: addrA,
		Data: wire.EncodeMessage(wire.Message{From: addrA, Payloads: [][]byte{payload}})}}
	b.Start()
	waitProcessed(t, b, 1)
	b.Stop() // joins the loop: the backlog's transaction has committed
	if _, recv := b.Counters(); recv != 1 {
		t.Errorf("termination counter saw %d received messages, want 1", recv)
	}
	if !b.WS.Contains("got", datalog.Tuple{datalog.BytesV(payload)}) {
		t.Error("backlogged payload was not imported")
	}
}

func TestRederivedExportsAreNotResent(t *testing.T) {
	net := transport.NewMemNetwork()
	a := newTestNode(t, net, "a", addrA, map[string]string{"b": addrB}, deriveRule)
	b := newTestNode(t, net, "b", addrB, map[string]string{"a": addrA}, "")
	det := newDetector(t, net, addrA, addrB)
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()

	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("once"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(addrB)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	waitFixpoint(t, det)
	first := a.Metrics.Traffic().MsgsSent
	if first == 0 {
		t.Fatal("first trigger produced no traffic")
	}

	// A different trigger re-derives exactly the same export tuple: the
	// transaction commits, but the delta is empty and nothing is shipped.
	a.Assert([]engine.Fact{{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(2)}}})
	waitFixpoint(t, det)
	if again := a.Metrics.Traffic().MsgsSent; again != first {
		t.Errorf("re-derivation re-sent traffic: %d -> %d messages", first, again)
	}
	if got := b.WS.Count("got"); got != 1 {
		t.Errorf("node b: got %d payloads, want 1", got)
	}
}

func TestRetractionPrunesSentSetAndReships(t *testing.T) {
	net := transport.NewMemNetwork()
	a := newTestNode(t, net, "a", addrA, map[string]string{"b": addrB}, deriveRule)
	b := newTestNode(t, net, "b", addrB, map[string]string{"a": addrA}, "")
	det := newDetector(t, net, addrA, addrB)
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()

	// Two payloads differing in their last byte only: the dedup set tells
	// tuples apart by value, and the one that stays derivable must neither be
	// pruned nor re-sent by the post-retraction resync.
	pay := engine.Fact{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("volatile 1"))}}
	a.Assert([]engine.Fact{
		pay,
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("volatile 2"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(addrB)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	waitFixpoint(t, det)
	if got := a.SentSetSize(); got != 2 {
		t.Fatalf("sent set size after ship: %d, want 2", got)
	}
	first := a.Metrics.Traffic()

	// Retracting the base fact makes the export underivable; the dedup
	// entry must go with it instead of lingering forever.
	a.Retract([]engine.Fact{pay})
	waitFixpoint(t, det)
	if got := a.SentSetSize(); got != 1 {
		t.Errorf("sent set after retraction: %d entries, want the 1 still-derivable export", got)
	}
	if got := a.WS.Count("export"); got != 1 {
		t.Errorf("export after retraction: %d tuples, want 1", got)
	}
	if tr := a.Metrics.Traffic(); tr.MsgsSent != first.MsgsSent {
		t.Errorf("resync re-sent an export that never left the sent set: %d -> %d messages", first.MsgsSent, tr.MsgsSent)
	}

	// Re-asserting re-derives the same tuple — and because the dedup entry
	// was pruned, it ships again, alone.
	a.Assert([]engine.Fact{pay})
	waitFixpoint(t, det)
	again := a.Metrics.Traffic()
	if again.MsgsSent != first.MsgsSent+1 {
		t.Errorf("re-derived export after retraction: %d -> %d messages, want one more", first.MsgsSent, again.MsgsSent)
	}
	if grew := again.BytesSent - first.BytesSent; grew >= first.BytesSent {
		t.Errorf("re-ship carried %d bytes where the two-payload message took %d: more than the pruned tuple went out", grew, first.BytesSent)
	}
	if got := a.SentSetSize(); got != 2 {
		t.Errorf("sent set size after re-ship: %d, want 2", got)
	}
	if got := b.WS.Count("got"); got != 2 {
		t.Errorf("node b holds %d payloads, want 2", got)
	}
}

func TestFailedSendReleasesDedupAndReships(t *testing.T) {
	// The ship-path regression: a tuple whose first send fails must not be
	// permanently dedup-suppressed. Once the destination becomes
	// reachable, the next offer of the (still-derived) tuple ships it.
	net := transport.NewMemNetwork()
	const ghost, live = "10.9.9.9:1", "10.8.8.8:1"
	a := newTestNode(t, net, "a", addrA, nil, deriveRule)
	det := newDetector(t, net, addrA)
	up := net.Endpoint(live) // a destination that is there from the start
	a.Start()
	defer a.Stop()

	// The same payload to both destinations: the two export tuples differ
	// in their first column only, and only the ghost's mark may be released.
	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("dropped once"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(ghost)}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(live)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	waitFixpoint(t, det)
	if v := a.Violations(); len(v) != 1 {
		t.Fatalf("first send should fail with one violation, got %v", v)
	}
	if sent := a.Metrics.Traffic().MsgsSent; sent != 1 {
		t.Fatalf("traffic after one failed and one good send: %d messages, want 1", sent)
	}
	<-up.Receive()

	// The destination comes up; a retraction that leaves the export
	// derivable re-offers the live extent to ship. Before the fix, the
	// stale dedup entry swallowed the tuple here forever.
	raw := net.Endpoint(ghost)
	a.Assert([]engine.Fact{{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(2)}}})
	a.Retract([]engine.Fact{{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}}})
	waitFixpoint(t, det)

	select {
	case m := <-raw.Receive():
		msg, err := wire.DecodeMessage(m.Data)
		if err != nil || len(msg.Payloads) != 1 || string(msg.Payloads[0]) != "dropped once" {
			t.Fatalf("re-shipped message malformed: %+v, %v", msg, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tuple dropped on first send was never re-shipped")
	}
	if got := a.SentSetSize(); got != 2 {
		t.Errorf("sent set after successful re-ship: %d entries, want 2", got)
	}
	if v := a.Violations(); len(v) != 1 {
		t.Errorf("re-ship should add no violations, got %v", v)
	}
	// The re-offer covered the whole live extent; the tuple that was
	// delivered the first time stayed marked and did not go out again.
	select {
	case <-up.Receive():
		t.Error("the delivered export was sent a second time")
	default:
	}
	if sent := a.Metrics.Traffic().MsgsSent; sent != 2 {
		t.Errorf("traffic after the re-ship: %d messages, want 2", sent)
	}
}

func TestOversizedPayloadIsolatedFromBatch(t *testing.T) {
	// One payload beyond the datagram budget must not sink the flush it
	// would have shared: it ships alone, fails alone with an attributable
	// violation, and the rest of the batch flows.
	rawNet := transport.NewMemNetwork()
	wrap := func(addr string) transport.Transport {
		return transport.NewReliable(rawNet.Endpoint(addr), transport.ReliableConfig{})
	}
	a := nodeOverEndpoint(t, "a", addrA, map[string]string{"b": addrB}, deriveRule, wrap(addrA))
	b := nodeOverEndpoint(t, "b", addrB, map[string]string{"a": addrA}, "", wrap(addrB))
	det := dist.NewDetector(wrap(addrDet), []string{addrA, addrB})
	det.ReplyTimeout = 100 * time.Millisecond
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()
	defer det.Close()

	big := make([]byte, transport.MaxDatagram+1)
	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("small one"))}},
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV(big)}},
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("small two"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(addrB)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	waitFixpoint(t, det)

	if got := b.WS.Count("got"); got != 2 {
		t.Errorf("node b: got %d payloads, want the 2 small ones", got)
	}
	v := a.Violations()
	if len(v) != 1 {
		t.Fatalf("want exactly 1 violation for the oversized payload, got %v", v)
	}
	if !strings.Contains(v[0].Error(), "oversized") {
		t.Errorf("violation should name the oversized payload, got: %v", v[0])
	}
}

func TestBatchSignedPipelineDeliversEnvelopes(t *testing.T) {
	// With a SignBatch hook the outbound path runs through the
	// asynchronous sign-and-send stage: payloads arrive in MsgBatch
	// envelopes, the receiver records export_batch provenance rows, and
	// termination detection stays sound while chunks wait in the stage.
	net := transport.NewMemNetwork()
	a := newTestNode(t, net, "a", addrA, map[string]string{"b": addrB}, deriveRule)
	var signed atomic.Int64
	a.SignBatch = func(digest []byte) ([]byte, error) {
		time.Sleep(10 * time.Millisecond) // let probes race the sender stage
		signed.Add(1)
		return []byte("stub batch signature"), nil
	}
	b := newTestNode(t, net, "b", addrB, map[string]string{"a": addrA}, "")
	det := newDetector(t, net, addrA, addrB)
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()

	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("first"))}},
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("second"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(addrB)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	waitFixpoint(t, det)

	if got := b.WS.Count("got"); got != 2 {
		t.Errorf("node b: got %d payloads over the batch pipeline, want 2", got)
	}
	if got := b.WS.Count("export_batch"); got != 2 {
		t.Errorf("node b: %d export_batch provenance rows, want 2", got)
	}
	if signed.Load() == 0 {
		t.Error("SignBatch was never invoked")
	}
	// Chunking, the batch digest and the envelope encoder read the stored
	// export tuples' payload bytes in place, and the receiver's facts adopt
	// the decoder's buffers: both ends must still hold the bytes asserted.
	for _, e := range a.WS.Tuples("export") {
		if !a.WS.Contains("pay", datalog.Tuple{e[2]}) {
			t.Errorf("sender's stored export payload changed while shipping: %s", e[2])
		}
	}
	for _, p := range []string{"first", "second"} {
		if !b.WS.Contains("got", datalog.Tuple{datalog.BytesV([]byte(p))}) {
			t.Errorf("receiver does not hold payload %q byte for byte", p)
		}
	}
	// One envelope per (transaction, route): both payloads committed
	// together, so they share one signature.
	if sent := a.Metrics.Traffic().MsgsSent; sent != 1 {
		t.Errorf("batch pipeline sent %d messages, want 1 envelope", sent)
	}
	if v := append(a.Violations(), b.Violations()...); len(v) != 0 {
		t.Errorf("unexpected violations: %v", v)
	}
}

func TestBatchSigningFailureIsViolationNotLoss(t *testing.T) {
	net := transport.NewMemNetwork()
	a := newTestNode(t, net, "a", addrA, map[string]string{"b": addrB}, deriveRule)
	a.SignBatch = func([]byte) ([]byte, error) {
		return nil, errors.New("keystore exploded")
	}
	b := newTestNode(t, net, "b", addrB, map[string]string{"a": addrA}, "")
	det := newDetector(t, net, addrA, addrB)
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()

	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("unsignable"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(addrB)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	waitFixpoint(t, det)
	if v := a.Violations(); len(v) != 1 || !strings.Contains(v[0].Error(), "batch signing") {
		t.Errorf("signing failure should record one attributable violation, got %v", v)
	}
	if got := b.WS.Count("got"); got != 0 {
		t.Errorf("unsigned payload leaked to the receiver: %d", got)
	}
}

func TestStopIsIdempotentAndLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	net := transport.NewMemNetwork()
	a := newTestNode(t, net, "a", addrA, map[string]string{"b": addrB}, deriveRule)
	b := newTestNode(t, net, "b", addrB, map[string]string{"a": addrA}, "")
	det := newDetector(t, net, addrA, addrB)
	a.Start()
	b.Start()
	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("x"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(addrB)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	waitFixpoint(t, det)

	a.Stop()
	b.Stop()
	a.Stop() // idempotent
	b.Stop()
	det.Close()

	// Asserting against a stopped node drops the batch harmlessly.
	a.Assert([]engine.Fact{{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(9)}}})

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutine leak after Stop: %d before, %d after", before, now)
	}
}

func TestStopWithoutStartIsClean(t *testing.T) {
	net := transport.NewMemNetwork()
	a := newTestNode(t, net, "a", addrA, nil, "")
	a.Assert([]engine.Fact{{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}}})
	a.Stop() // never Started: must not hang or leak
	a.Assert([]engine.Fact{{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(2)}}})
}

func TestDetectorSurvivesFailedSendsAndGarbage(t *testing.T) {
	net := transport.NewMemNetwork()
	// The destination address is never registered: every send fails and is
	// recorded as a violation, and because a failed send is not counted,
	// termination detection still converges.
	a := newTestNode(t, net, "a", addrA, map[string]string{"ghost": "10.9.9.9:1"}, deriveRule)
	det := newDetector(t, net, addrA)
	a.Start()
	defer a.Stop()

	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("lost"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV("10.9.9.9:1")}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	waitFixpoint(t, det)
	if v := a.Violations(); len(v) != 1 {
		t.Errorf("dropped message should be recorded as a violation, got %v", v)
	}

	// A malformed datagram from an address outside the cluster is dropped
	// without touching the termination counters.
	raw := net.Endpoint("6.6.6.6:666")
	processed := a.Metrics.MsgsProcessed()
	if err := raw.Send(addrA, []byte("not a wire message")); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, a, processed+1)
	waitFixpoint(t, det)

	// The node is still live afterwards: a real message is imported.
	msg := wire.EncodeMessage(wire.Message{From: "6.6.6.6:666", Payloads: [][]byte{[]byte("p")}})
	if err := raw.Send(addrA, msg); err != nil {
		t.Fatal(err)
	}
	waitProcessed(t, a, processed+2)
	waitFixpoint(t, det)
	if got := a.WS.Count("got"); got != 1 {
		t.Errorf("node a: got %d payloads after garbage, want 1", got)
	}
	if _, recv := a.Counters(); recv != 0 {
		t.Errorf("out-of-band traffic leaked into termination counters: recv=%d", recv)
	}
	// Byte and message metrics must not diverge under corruption: the
	// malformed datagram counts in both or in neither.
	if tr := a.Metrics.Traffic(); tr.MsgsRecv != a.Metrics.MsgsProcessed() {
		t.Errorf("recv metrics diverged: %d messages recorded, %d processed",
			tr.MsgsRecv, a.Metrics.MsgsProcessed())
	}
}

func TestDetectorNotFooledByInFlightWork(t *testing.T) {
	// Queue work before starting the nodes: the first waves see passive
	// nodes with zero counters, but the queued batch must keep the node
	// reporting active until it actually commits and its sends settle.
	net := transport.NewMemNetwork()
	a := newTestNode(t, net, "a", addrA, map[string]string{"b": addrB}, deriveRule)
	b := newTestNode(t, net, "b", addrB, map[string]string{"a": addrA}, echoRule)
	det := newDetector(t, net, addrA, addrB)

	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("queued early"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(addrB)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()
	waitFixpoint(t, det)
	if got := b.WS.Count("got"); got != 1 {
		t.Errorf("fixpoint declared before queued work completed: b got %d", got)
	}
	if got := a.WS.Count("got"); got != 1 {
		t.Errorf("fixpoint declared before echo completed: a got %d", got)
	}
}

func TestDetectorWaitAfterCloseReturnsFalse(t *testing.T) {
	net := transport.NewMemNetwork()
	a := newTestNode(t, net, "a", addrA, nil, "")
	a.Start()
	defer a.Stop()
	det := dist.NewDetector(net.Endpoint(addrDet), []string{addrA})
	det.Close()
	done := make(chan bool, 1)
	go func() { done <- det.Wait() }()
	select {
	case ok := <-done:
		if ok {
			t.Error("Wait on a closed detector should return false")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after Close")
	}
}

func TestMergedLocalBatchesIsolateOnViolation(t *testing.T) {
	net := transport.NewMemNetwork()
	// poison(X) requires blessed(X): asserting unblessed poison violates.
	a := newTestNode(t, net, "a", addrA, map[string]string{"b": addrB}, deriveRule+`
		blessed(X) -> int(X).
		poison(X) -> blessed(X).
	`)
	b := newTestNode(t, net, "b", addrB, map[string]string{"a": addrA}, "")
	det := newDetector(t, net, addrA, addrB)

	// Queue both batches before Start so the loop coalesces them into one
	// transaction; the merged rejection must fall back to per-batch
	// isolation instead of rolling back the valid batch.
	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("good"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(addrB)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	a.Assert([]engine.Fact{{Pred: "poison", Tuple: datalog.Tuple{datalog.Int64(666)}}})
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()
	waitFixpoint(t, det)

	if v := a.Violations(); len(v) != 1 {
		t.Fatalf("want exactly 1 violation for the poison batch, got %v", v)
	}
	if got := a.WS.Count("poison"); got != 0 {
		t.Errorf("poison batch should have rolled back, %d tuples remain", got)
	}
	if got := b.WS.Count("got"); got != 1 {
		t.Errorf("valid batch should have survived isolation: b got %d payloads, want 1", got)
	}
}

func TestRejectedBatchRollsBackAndIsRecorded(t *testing.T) {
	net := transport.NewMemNetwork()
	a := newTestNode(t, net, "a", addrA, map[string]string{"b": addrB}, deriveRule)
	// B only accepts payloads it has pre-approved; anything else violates
	// the constraint and the whole message transaction rolls back.
	b := newTestNode(t, net, "b", addrB, map[string]string{"a": addrA}, `
		approved(P) -> bytes(P).
		got(Pkt) -> approved(Pkt).
	`)
	det := newDetector(t, net, addrA, addrB)
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()

	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("unapproved"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(addrB)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	waitFixpoint(t, det)

	if v := b.Violations(); len(v) != 1 {
		t.Fatalf("node b: want exactly 1 recorded violation, got %v", v)
	}
	if got := b.WS.Count("got"); got != 0 {
		t.Errorf("rejected payload leaked into got: %d tuples", got)
	}
	if got := b.WS.Count("export"); got != 0 {
		t.Errorf("rejected message left export residue: %d tuples", got)
	}
	if v := a.Violations(); len(v) != 0 {
		t.Errorf("sender should be unaffected, got violations: %v", v)
	}
}

func TestTerminationOverReliableLossyTransport(t *testing.T) {
	// The same protocol must stay sound when datagrams are dropped and
	// duplicated: the reliable layer retransmits until delivery, so the
	// counters eventually balance and never balance early.
	rawNet := transport.NewMemNetwork()
	cfg := transport.ReliableConfig{RetransmitInterval: 2 * time.Millisecond}
	wrap := func(addr string, seed int64) transport.Transport {
		return transport.NewReliable(transporttest.Lossy(rawNet.Endpoint(addr), seed, 0.25, 0.25, 0), cfg)
	}
	epA, epB, epD := wrap(addrA, 1), wrap(addrB, 2), wrap(addrDet, 3)
	a := nodeOverEndpoint(t, "a", addrA, map[string]string{"b": addrB}, deriveRule, epA)
	b := nodeOverEndpoint(t, "b", addrB, map[string]string{"a": addrA}, echoRule, epB)
	det := dist.NewDetector(epD, []string{addrA, addrB})
	det.ReplyTimeout = 100 * time.Millisecond
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()
	defer det.Close()

	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("lossy hello"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(addrB)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	waitFixpoint(t, det)
	if got := b.WS.Count("got"); got != 1 {
		t.Errorf("node b: got %d payloads over lossy transport, want 1", got)
	}
	if got := a.WS.Count("got"); got != 1 {
		t.Errorf("node a: got %d echoes over lossy transport, want 1", got)
	}
	// Under loss, duplication and retransmission the application-level
	// recv metrics must stay consistent with each other: every datagram
	// the loop consumed is counted in messages and in bytes alike.
	for _, n := range []*dist.Node{a, b} {
		if tr := n.Metrics.Traffic(); tr.MsgsRecv != n.Metrics.MsgsProcessed() {
			t.Errorf("%s: recv metrics diverged: %d messages recorded, %d processed",
				n.Principal, tr.MsgsRecv, n.Metrics.MsgsProcessed())
		}
	}
}

// nodeOverEndpoint is newTestNode for a caller-supplied endpoint.
func nodeOverEndpoint(t *testing.T, name, addr string, peers map[string]string, extra string, ep transport.Transport) *dist.Node {
	t.Helper()
	ws := engine.NewWorkspace(nil)
	prog, err := datalog.Parse(dist.ExportDecl + testDecls + extra)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := ws.Install(prog); err != nil {
		t.Fatalf("install: %v", err)
	}
	facts := []engine.Fact{
		{Pred: "self", Tuple: datalog.Tuple{datalog.Prin(name)}},
		{Pred: "principal", Tuple: datalog.Tuple{datalog.Prin(name)}},
		{Pred: "principal_node", Tuple: datalog.Tuple{datalog.Prin(name), datalog.NodeV(addr)}},
	}
	cluster := []string{addr}
	for p, a := range peers {
		facts = append(facts,
			engine.Fact{Pred: "principal", Tuple: datalog.Tuple{datalog.Prin(p)}},
			engine.Fact{Pred: "principal_node", Tuple: datalog.Tuple{datalog.Prin(p), datalog.NodeV(a)}},
		)
		cluster = append(cluster, a)
	}
	if _, err := ws.Assert(facts); err != nil {
		t.Fatalf("setup assert: %v", err)
	}
	n := dist.NewNode(name, ws, ep)
	n.SetPeers(cluster)
	return n
}

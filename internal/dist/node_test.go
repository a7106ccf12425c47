package dist_test

import (
	"errors"
	"fmt"
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

// batchDecl is what a batch-signing policy declares for the runtime's
// record of a batch envelope; a node without it refuses batch envelopes.
const batchDecl = `
	export_batch(L, Pkt, D, S) -> node(L), bytes(Pkt), bytes(D), bytes(S).
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
	for n.MsgsRecv() < want {
		if time.Now().After(deadline) {
			t.Fatalf("node processed %d messages, want %d", n.MsgsRecv(), want)
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
		if n.MsgsSent() == 0 || n.BytesSent() == 0 {
			t.Errorf("%s: no traffic recorded (%d messages, %d bytes)", n.Principal, n.MsgsSent(), n.BytesSent())
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
	first := a.MsgsSent()
	if first == 0 {
		t.Fatal("first trigger produced no traffic")
	}

	// A different trigger re-derives exactly the same export tuple: the
	// transaction commits, but the delta is empty and nothing is shipped.
	a.Assert([]engine.Fact{{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(2)}}})
	waitFixpoint(t, det)
	if again := a.MsgsSent(); again != first {
		t.Errorf("re-derivation re-sent traffic: %d -> %d messages", first, again)
	}
	if got := b.WS.Count("got"); got != 1 {
		t.Errorf("node b: got %d payloads, want 1", got)
	}
}

// TestFailedSendIsOneViolationAndNotRetried: the store holds every export row
// a node derived, so a tuple is offered to ship once, in the transaction that
// first stored it. A send that fails is one recorded violation; re-deriving
// the tuple once its destination is up ships nothing, to either destination.
func TestFailedSendIsOneViolationAndNotRetried(t *testing.T) {
	net := transport.NewMemNetwork()
	const ghost, live = "10.9.9.9:1", "10.8.8.8:1"
	a := newTestNode(t, net, "a", addrA, nil, deriveRule)
	det := newDetector(t, net, addrA)
	up := net.Endpoint(live)
	a.Start()
	defer a.Stop()

	a.Assert([]engine.Fact{
		{Pred: "pay", Tuple: datalog.Tuple{datalog.BytesV([]byte("dropped once"))}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(ghost)}},
		{Pred: "dest", Tuple: datalog.Tuple{datalog.NodeV(live)}},
		{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(1)}},
	})
	waitFixpoint(t, det)
	if v := a.Violations(); len(v) != 1 {
		t.Fatalf("the send to the missing destination should be one violation, got %v", v)
	}
	if sent := a.MsgsSent(); sent != 1 {
		t.Fatalf("traffic after one failed and one good send: %d messages, want 1", sent)
	}
	<-up.Receive()

	raw := net.Endpoint(ghost)
	a.Assert([]engine.Fact{{Pred: "trigger", Tuple: datalog.Tuple{datalog.Int64(2)}}})
	waitFixpoint(t, det)
	select {
	case <-raw.Receive():
		t.Error("the export whose send failed was shipped again")
	case <-up.Receive():
		t.Error("the delivered export was shipped again")
	default:
	}
	if sent, v := a.MsgsSent(), a.Violations(); sent != 1 || len(v) != 1 {
		t.Errorf("after the re-derivation: %d messages and %d violations, want 1 and 1", sent, len(v))
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
	// With a SignBatch hook the loop signs each group of a shipping
	// transaction's chunks and sends them as MsgBatch envelopes: the
	// receiver records export_batch provenance rows, and termination
	// detection stays sound while a slow signature holds the loop.
	net := transport.NewMemNetwork()
	a := newTestNode(t, net, "a", addrA, map[string]string{"b": addrB}, deriveRule)
	var signed atomic.Int64
	a.SignBatch = func(digest []byte) ([]byte, error) {
		time.Sleep(10 * time.Millisecond) // let probes race the signature
		signed.Add(1)
		return []byte("stub batch signature"), nil
	}
	b := newTestNode(t, net, "b", addrB, map[string]string{"a": addrA}, batchDecl)
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
	if sent := a.MsgsSent(); sent != 1 {
		t.Errorf("batch pipeline sent %d messages, want 1 envelope", sent)
	}
	if v := append(a.Violations(), b.Violations()...); len(v) != 0 {
		t.Errorf("unexpected violations: %v", v)
	}
}

// TestViolationFloodIsCountedNotKept: a peer that sends nothing but traffic
// the node rejects — here 10 000 datagrams whose payloads every import
// violates, in merged runs of 100 — costs the node a count, not memory: it
// counts each rejection and keeps the errors of the first few, in order.
func TestViolationFloodIsCountedNotKept(t *testing.T) {
	const n, run, kept = 10000, 100, 64
	ep := transporttest.NewScripted(addrB)
	b := nodeOverEndpoint(t, "b", addrB, map[string]string{"a": addrA}, `got(Pkt) -> pay(Pkt).`, ep)
	b.Start()
	defer b.Stop()
	for i := 0; i < n; i += run {
		msgs := make([]transport.InMsg, run)
		for j := range msgs {
			msgs[j] = datagramOf(i+j, 1, 8)
		}
		ep.Deliver(msgs...)
	}
	settled(t, b, n)
	if got := b.Rejections(); got != n {
		t.Errorf("%d rejections counted, want %d", got, n)
	}
	v := b.Violations()
	if len(v) == 0 || len(v) > kept {
		t.Fatalf("the node keeps %d errors of %d rejections, want 1 to %d", len(v), n, kept)
	}
	for i, err := range v {
		if want := fmt.Sprintf("Pkt=0x%016x", i); !strings.Contains(err.Error(), want) {
			t.Fatalf("kept error %d is %v, want the rejection of datagram %d (%s)", i, err, i, want)
		}
	}
	if b.WS.Count("got") != 0 {
		t.Errorf("rejected payloads left %d got rows", b.WS.Count("got"))
	}
}

// TestBatchEnvelopeRefusedWithoutBatchPolicy: a batch envelope reaching a node
// whose program declares no export_batch — no constraint there would check its
// signature — is one recorded violation and leaves nothing in the store.
func TestBatchEnvelopeRefusedWithoutBatchPolicy(t *testing.T) {
	ep := transporttest.NewScripted(addrB)
	b := nodeOverEndpoint(t, "b", addrB, map[string]string{"a": addrA}, "", ep)
	b.Start()
	defer b.Stop()
	before := b.WS.Predicates()
	payloads := [][]byte{[]byte("unchecked")}
	ep.Deliver(transport.InMsg{From: addrA, Data: wire.EncodeMessage(wire.Message{
		Kind: wire.MsgBatch, From: addrA, Payloads: payloads, Sig: []byte("any signature"),
	})})
	waitProcessed(t, b, 1)
	b.Stop() // joins the loop: the envelope has been handled
	if v := b.Violations(); len(v) != 1 || !strings.Contains(v[0].Error(), "batch envelope") {
		t.Errorf("want one violation naming the batch envelope, got %v", v)
	}
	if got := b.WS.Count("export") + b.WS.Count("got"); got != 0 {
		t.Errorf("the refused envelope left %d rows", got)
	}
	if after := b.WS.Predicates(); len(after) != len(before) {
		t.Errorf("the refused envelope added relations: %v -> %v", before, after)
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
	processed := a.MsgsRecv()
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
	// Under loss, duplication and retransmission the reliable layer delivers
	// each shipped datagram exactly once: what one node took in, in messages
	// and in bytes, is what the other shipped.
	for _, p := range [][2]*dist.Node{{a, b}, {b, a}} {
		from, to := p[0], p[1]
		if to.MsgsRecv() != from.MsgsSent() || to.BytesRecv() != from.BytesSent() {
			t.Errorf("%s took in %d messages / %d bytes, %s shipped %d / %d",
				to.Principal, to.MsgsRecv(), to.BytesRecv(), from.Principal, from.MsgsSent(), from.BytesSent())
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

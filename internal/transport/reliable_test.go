package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// lossy wraps inner with a started one-rule chaos engine: every datagram sent
// is dropped, duplicated or corrupted with the given probabilities
// (transporttest.Lossy for tests outside this package).
func lossy(inner Transport, seed int64, drop, dup, garble float64) Transport {
	e := NewChaosEngine(&ChaosPlan{Seed: seed, Links: []ChaosLink{{From: "*", To: "*", Drop: drop, Dup: dup, Garble: garble}}})
	e.Start()
	return e.Wrap(inner)
}

// reliablePair builds two reliable endpoints over one lossy memnet.
func reliablePair(t *testing.T, seed int64, drop, dup, garble float64) (a, b *ReliableEndpoint) {
	t.Helper()
	net := NewMemNetwork()
	cfg := ReliableConfig{RetransmitInterval: 2 * time.Millisecond}
	a = NewReliable(lossy(net.Endpoint("a:1"), seed, drop, dup, garble), cfg)
	b = NewReliable(lossy(net.Endpoint("b:1"), seed+1, drop, dup, garble), cfg)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// receiver reads one endpoint's datagrams one at a time through either of the
// Transport's receive methods, so the delivery tests below hold the batch
// hand-off to the same in-order, exactly-once contract as Receive.
type receiver struct {
	ep    Transport
	batch bool
	buf   []InMsg
}

// next returns the next datagram, or false after the timeout.
func (r *receiver) next(timeout time.Duration) (InMsg, bool) {
	if !r.batch {
		select {
		case m := <-r.ep.Receive():
			return m, true
		case <-time.After(timeout):
			return InMsg{}, false
		}
	}
	if len(r.buf) == 0 {
		select {
		case r.buf = <-r.ep.ReceiveBatch():
		case <-time.After(timeout):
			return InMsg{}, false
		}
	}
	m := r.buf[0]
	r.buf = r.buf[1:]
	return m, true
}

// viaBothReceiveMethods runs a delivery test once per receive method.
func viaBothReceiveMethods(t *testing.T, test func(t *testing.T, batch bool)) {
	t.Run("Receive", func(t *testing.T) { test(t, false) })
	t.Run("ReceiveBatch", func(t *testing.T) { test(t, true) })
}

func TestReliableDeliveryUnderLossDupAndCorruption(t *testing.T) {
	viaBothReceiveMethods(t, testReliableDeliveryUnderLossDupAndCorruption)
}

func testReliableDeliveryUnderLossDupAndCorruption(t *testing.T, batch bool) {
	a, b := reliablePair(t, 42, 0.3, 0.2, 0.1)
	in := receiver{ep: b, batch: batch}
	const n = 200
	for i := 0; i < n; i++ {
		if err := a.Send("b:1", []byte(fmt.Sprintf("msg-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	got := map[string]int{}
	for len(got) < n {
		m, ok := in.next(30 * time.Second)
		if !ok {
			t.Fatalf("only %d/%d distinct messages delivered", len(got), n)
		}
		got[string(m.Data)]++
		if m.From != "a:1" {
			t.Fatalf("from %s, want a:1", m.From)
		}
	}
	for msg, cnt := range got {
		if cnt != 1 {
			t.Errorf("%s delivered %d times, want exactly once", msg, cnt)
		}
	}
	// Once everything is acked the pending set must drain (the sender may
	// still be waiting on acks that were in flight when we checked).
	waitUntil := time.Now().Add(10 * time.Second)
	for a.PendingFrames() > 0 && time.Now().Before(waitUntil) {
		time.Sleep(5 * time.Millisecond)
	}
	if p := a.PendingFrames(); p != 0 {
		t.Errorf("%d frames still pending after full delivery", p)
	}
}

func TestReliableDedupStateIsPruned(t *testing.T) {
	viaBothReceiveMethods(t, testReliableDedupStateIsPruned)
}

func testReliableDedupStateIsPruned(t *testing.T, batch bool) {
	// In-order delivery must keep the dedup floor advancing instead of
	// accumulating one entry per message, and reach the consumer in order.
	net := NewMemNetwork()
	a := NewReliable(net.Endpoint("a:1"), ReliableConfig{})
	b := NewReliable(net.Endpoint("b:1"), ReliableConfig{})
	defer a.Close()
	defer b.Close()
	const n = 500
	for i := 0; i < n; i++ {
		if err := a.Send("b:1", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	in := receiver{ep: b, batch: batch}
	for i := 0; i < n; i++ {
		m, ok := in.next(5 * time.Second)
		if !ok {
			t.Fatalf("message %d not delivered", i)
		}
		if len(m.Data) != 1 || m.Data[0] != byte(i) {
			t.Fatalf("message %d arrived as %v: out of order", i, m.Data)
		}
	}
	b.mu.Lock()
	st := b.seen["a:1"]
	floor, sparse := st.floor, len(st.above)
	b.mu.Unlock()
	if floor != n || sparse != 0 {
		t.Errorf("dedup state not pruned: floor=%d sparse=%d, want floor=%d sparse=0", floor, sparse, n)
	}
}

func TestReliableGarbageDatagramsIgnored(t *testing.T) {
	// Raw garbage aimed at a reliable endpoint — wrong type byte, bad CRC,
	// truncated frames — must neither crash it nor surface as a delivery.
	net := NewMemNetwork()
	b := NewReliable(net.Endpoint("b:1"), ReliableConfig{})
	defer b.Close()
	evil := net.Endpoint("evil:1")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		junk := make([]byte, rng.Intn(64))
		rng.Read(junk)
		if err := evil.Send("b:1", junk); err != nil {
			t.Fatal(err)
		}
	}
	// A valid frame wrapped by a peer endpoint still gets through.
	a := NewReliable(net.Endpoint("a:1"), ReliableConfig{})
	defer a.Close()
	if err := a.Send("b:1", []byte("real")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Receive():
		if string(m.Data) != "real" || m.From != "a:1" {
			t.Errorf("garbage leaked through: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("valid frame not delivered after garbage barrage")
	}
}

func TestReliableMaxAttemptsGivesUp(t *testing.T) {
	// Sending into a black hole with bounded attempts must eventually
	// abandon the frame and count the loss instead of retrying forever.
	net := NewMemNetwork()
	net.Endpoint("hole:1")                                     // registered but never drained, drops via lossy
	a := NewReliable(lossy(net.Endpoint("a:1"), 1, 1.0, 0, 0), // 100% drop
		ReliableConfig{RetransmitInterval: time.Millisecond, MaxAttempts: 3})
	defer a.Close()
	lost := cLosses.Value()
	if err := a.Send("hole:1", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for cLosses.Value() == lost && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := cLosses.Value() - lost; got != 1 || a.PendingFrames() != 0 {
		t.Errorf("want 1 loss and no pending frames, got %d losses, %d pending", got, a.PendingFrames())
	}
}

// recordingTransport timestamps every outbound data frame per destination.
type recordingTransport struct {
	Transport
	mu    sync.Mutex
	sends map[string][]sendRec // per destination
}

type sendRec struct {
	seq uint64
	at  time.Time
}

func newRecording(inner Transport) *recordingTransport {
	return &recordingTransport{Transport: inner, sends: make(map[string][]sendRec)}
}

func (r *recordingTransport) Send(to string, data []byte) error {
	if typ, seq, _, ok := decodeFrame(data); ok && typ == frameData {
		r.mu.Lock()
		r.sends[to] = append(r.sends[to], sendRec{seq: seq, at: time.Now()})
		r.mu.Unlock()
	}
	return r.Transport.Send(to, data)
}

func (r *recordingTransport) recs(to string) []sendRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sendRec(nil), r.sends[to]...)
}

func TestReliableRetransmitBackoffGrows(t *testing.T) {
	// Retransmissions into a black hole must space out exponentially, not
	// hammer the corpse at the base interval.
	net := NewMemNetwork()
	net.Endpoint("hole:1") // registered but never drained: acks never come
	rec := newRecording(net.Endpoint("a:1"))
	base := 4 * time.Millisecond
	a := NewReliable(rec, ReliableConfig{
		RetransmitInterval: base,
		MaxAttempts:        5,
		MaxBackoff:         time.Second,
	})
	defer a.Close()
	lost := cLosses.Value()
	if err := a.Send("hole:1", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for cLosses.Value() == lost && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	recs := rec.recs("hole:1")
	if len(recs) != 6 { // initial transmit + MaxAttempts retransmissions
		t.Fatalf("%d transmissions, want 6", len(recs))
	}
	// With ±20%% jitter, doubling still means the last gap dwarfs the
	// first: 16x nominal, >9x under worst-case jitter.
	firstGap := recs[1].at.Sub(recs[0].at)
	lastGap := recs[5].at.Sub(recs[4].at)
	if lastGap < 3*firstGap {
		t.Errorf("backoff not growing: first gap %v, last gap %v", firstGap, lastGap)
	}
}

func TestReliableInflightCapDefersSends(t *testing.T) {
	// A destination at its in-flight cap must not see new frames; the
	// excess waits queued until slots free (never here: black hole).
	net := NewMemNetwork()
	net.Endpoint("hole:1")
	rec := newRecording(net.Endpoint("a:1"))
	a := NewReliable(rec, ReliableConfig{
		RetransmitInterval: 5 * time.Millisecond,
		MaxInflight:        4,
	})
	defer a.Close()
	const n = 20
	for i := 0; i < n; i++ {
		if err := a.Send("hole:1", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(60 * time.Millisecond) // several retransmit rounds
	distinct := map[uint64]bool{}
	for _, r := range rec.recs("hole:1") {
		distinct[r.seq] = true
	}
	if len(distinct) != 4 {
		t.Errorf("%d distinct frames on the wire, want the in-flight cap of 4", len(distinct))
	}
	if p := a.PendingFrames(); p != n {
		t.Errorf("%d pending frames, want %d (nothing acked, nothing lost)", p, n)
	}

	// Forget purges the whole backlog — sent and deferred — and the
	// dedup/sequence state for the address.
	if got := a.Forget("hole:1"); got != n {
		t.Errorf("Forget dropped %d frames, want %d", got, n)
	}
	if p := a.PendingFrames(); p != 0 {
		t.Errorf("%d pending frames after Forget, want 0", p)
	}
	a.mu.Lock()
	_, seqLeft := a.nextSeq["hole:1"]
	_, seenLeft := a.seen["hole:1"]
	_, slotLeft := a.inflight["hole:1"]
	a.mu.Unlock()
	if seqLeft || seenLeft || slotLeft {
		t.Errorf("Forget left state behind: seq=%v seen=%v inflight=%v", seqLeft, seenLeft, slotLeft)
	}
	// The endpoint keeps working for other destinations afterwards.
	b := NewReliable(net.Endpoint("b:1"), ReliableConfig{})
	defer b.Close()
	if err := a.Send("b:1", []byte("alive")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Receive():
		if string(m.Data) != "alive" {
			t.Errorf("got %q", m.Data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send after Forget not delivered")
	}
}

// holeTransport permanently drops data frames whose sequence is in the
// block set — a deterministic "this frame never arrives" link for
// exercising the dedup window-slide.
type holeTransport struct {
	Transport
	block map[uint64]bool
}

func (h *holeTransport) Send(to string, data []byte) error {
	if typ, seq, _, ok := decodeFrame(data); ok && typ == frameData && h.block[seq] {
		return nil
	}
	return h.Transport.Send(to, data)
}

func TestReliableDedupWindowSlidesPastAbandonedFrame(t *testing.T) {
	// A sender with bounded MaxAttempts that gives up on a frame leaves a
	// permanent hole in the receiver's sequence space. The dedup floor must
	// slide past it once the sparse set outgrows dedupWindow, keeping
	// receiver memory bounded instead of pinned forever.
	net := NewMemNetwork()
	inner := &holeTransport{Transport: net.Endpoint("a:1"), block: map[uint64]bool{1: true}}
	// The base interval must give the receiver room to ack a dedupWindow's
	// worth of backlog (the race detector slows it) so only the blocked
	// frame exhausts MaxAttempts; backoff caps the abandonment at ~1.5s.
	a := NewReliable(inner, ReliableConfig{
		RetransmitInterval: 50 * time.Millisecond,
		MaxAttempts:        6,
		MaxBackoff:         400 * time.Millisecond,
		MaxInflight:        2 * dedupWindow, // the cap is not under test here
	})
	b := NewReliable(net.Endpoint("b:1"), ReliableConfig{})
	defer a.Close()
	defer b.Close()

	lost := cLosses.Value()
	const n = dedupWindow + 60
	for i := 1; i <= n; i++ {
		if err := a.Send("b:1", []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	// Everything but the blocked frame arrives exactly once.
	for i := 0; i < n-1; i++ {
		select {
		case <-b.Receive():
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d/%d messages delivered", i, n-1)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for cLosses.Value() == lost && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := cLosses.Value() - lost; got != 1 {
		t.Fatalf("%d losses, want 1 (the blocked frame)", got)
	}
	b.mu.Lock()
	st := b.seen["a:1"]
	floor, sparse := st.floor, len(st.above)
	b.mu.Unlock()
	if floor <= 1 {
		t.Errorf("floor %d never slid past the hole at seq 1", floor)
	}
	if floor != n {
		t.Errorf("floor %d, want %d (all delivered frames contiguous past the hole)", floor, n)
	}
	if sparse > dedupWindow {
		t.Errorf("sparse set %d entries, want <= %d (memory unbounded)", sparse, dedupWindow)
	}
	// A late arrival of the abandoned frame below the slid floor is
	// suppressed as a duplicate, not delivered.
	inner.block = nil
	before := cDupDrops.Value()
	frame := encodeFrame(frameData, 1, []byte("late"))
	if err := net.Endpoint("a:1").Send("b:1", frame); err != nil {
		t.Fatal(err)
	}
	waitUntil := time.Now().Add(5 * time.Second)
	for cDupDrops.Value() == before && time.Now().Before(waitUntil) {
		time.Sleep(time.Millisecond)
	}
	if cDupDrops.Value() == before {
		t.Error("late frame below the slid floor was not suppressed")
	}
	select {
	case m := <-b.Receive():
		t.Errorf("late frame below floor delivered: %q", m.Data)
	default:
	}
}

func TestReliableOverRealUDP(t *testing.T) {
	viaBothReceiveMethods(t, testReliableOverRealUDP)
}

func testReliableOverRealUDP(t *testing.T, batch bool) {
	udpNet := NewUDPNetwork()
	defer udpNet.Close()
	a, err := udpNet.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	b, err := udpNet.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := a.Send(b.Addr(), []byte(fmt.Sprintf("udp-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	in := receiver{ep: b, batch: batch}
	for len(seen) < n {
		m, ok := in.next(20 * time.Second)
		if !ok {
			t.Fatalf("only %d/%d messages over real UDP", len(seen), n)
		}
		seen[string(m.Data)] = true
		if m.From != a.Addr() {
			t.Fatalf("from %s, want %s", m.From, a.Addr())
		}
	}
}

package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"secureblox/internal/wire"
)

// lossy wraps inner with a started one-rule chaos engine: every datagram sent
// is dropped, duplicated or corrupted with the given probabilities
// (transporttest.Lossy for tests outside this package).
func lossy(inner Transport, seed int64, drop, dup, garble float64) Transport {
	e := NewChaosEngine(&ChaosPlan{Seed: seed, Links: []ChaosLink{{From: "*", To: "*", Drop: drop, Dup: dup, Garble: garble}}})
	e.Start()
	return e.Wrap(inner)
}

// reliableOver runs the reliable layer over an in-process endpoint: inner's
// Send, through a copy, is its lower half, and a goroutine in the read loop's
// place hands every datagram inner receives to handleFrame.
func reliableOver(inner Transport) *ReliableEndpoint {
	r := newReliable(inner.Addr(), copying{inner})
	r.wg.Add(2)
	go func() {
		defer r.wg.Done()
		for batch := range inner.ReceiveBatch() {
			for _, in := range batch {
				r.handleFrame(in.From, in.Data)
			}
		}
	}()
	go r.retransmitLoop()
	return r
}

// copying is an in-process endpoint as a lower half: it sends a copy of each
// frame, since the endpoint delivers the buffer it is given and a lower half
// keeps nothing (the reliable layer reuses its ack buffer).
type copying struct{ Transport }

func (c copying) Send(to string, frame []byte) error {
	return c.Transport.Send(to, bytes.Clone(frame))
}

// reliablePair builds two reliable endpoints over one lossy memnet.
func reliablePair(t *testing.T, seed int64, drop, dup, garble float64) (a, b *ReliableEndpoint) {
	t.Helper()
	net := NewMemNetwork()
	a = reliableOver(lossy(net.Endpoint("a:1"), seed, drop, dup, garble))
	b = reliableOver(lossy(net.Endpoint("b:1"), seed+1, drop, dup, garble))
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
	a := reliableOver(net.Endpoint("a:1"))
	b := reliableOver(net.Endpoint("b:1"))
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
	b := reliableOver(net.Endpoint("b:1"))
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
	a := reliableOver(net.Endpoint("a:1"))
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
	a := reliableOver(rec)
	defer a.Close()
	if err := a.Send("hole:1", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// The initial transmit and five retransmissions: about 31x the base
	// interval, 1.55s.
	deadline := time.Now().Add(10 * time.Second)
	for len(rec.recs("hole:1")) < 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	recs := rec.recs("hole:1")
	if len(recs) < 6 {
		t.Fatalf("%d transmissions, want at least 6", len(recs))
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
	a := reliableOver(rec)
	defer a.Close()
	const n = maxInflight + 20
	for i := 0; i < n; i++ {
		if err := a.Send("hole:1", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(4 * retransmitInterval) // several retransmit rounds
	distinct := map[uint64]bool{}
	for _, r := range rec.recs("hole:1") {
		distinct[r.seq] = true
	}
	if len(distinct) != maxInflight {
		t.Errorf("%d distinct frames on the wire, want the in-flight cap of %d", len(distinct), maxInflight)
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
	b := reliableOver(net.Endpoint("b:1"))
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

func TestReliableDedupWindowSlidesPastAbandonedFrame(t *testing.T) {
	// A send that failed after taking its sequence number leaves a permanent
	// hole in the receiver's sequence space. The dedup floor must slide past
	// it once the sparse set outgrows dedupWindow, keeping receiver memory
	// bounded instead of pinned forever. The frames are fed to the handler
	// directly: seqs 2…n+1, never seq 1.
	net := NewMemNetwork()
	b := reliableOver(net.Endpoint("b:1"))
	defer b.Close()
	const n = dedupWindow + 60
	for seq := uint64(2); seq <= n+1; seq++ {
		b.handleFrame("a:1", encodeFrame([]byte("m"), frameData, seq))
	}
	// Everything fed arrives exactly once.
	for i := 0; i < n; i++ {
		select {
		case <-b.Receive():
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d/%d messages delivered", i, n)
		}
	}
	b.mu.Lock()
	st := b.seen["a:1"]
	floor, sparse := st.floor, len(st.above)
	b.mu.Unlock()
	if floor <= 1 {
		t.Errorf("floor %d never slid past the hole at seq 1", floor)
	}
	if floor != n+1 {
		t.Errorf("floor %d, want %d (all delivered frames contiguous past the hole)", floor, n+1)
	}
	if sparse > dedupWindow {
		t.Errorf("sparse set %d entries, want <= %d (memory unbounded)", sparse, dedupWindow)
	}
	// A late arrival of the missing frame below the slid floor is
	// suppressed as a duplicate, not delivered.
	before := cDupDrops.Value()
	b.handleFrame("a:1", encodeFrame([]byte("late"), frameData, 1))
	if cDupDrops.Value() == before {
		t.Error("late frame below the slid floor was not suppressed")
	}
	select {
	case m := <-b.Receive():
		t.Errorf("late frame below floor delivered: %q", m.Data)
	case <-time.After(50 * time.Millisecond):
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

// dropFirst is a lower half that drops the first transmission of every data
// frame and records the sequence number of each one it lets through, per
// destination and payload.
type dropFirst struct {
	lower
	mu     sync.Mutex
	seen   map[string]bool              // destination and sequence number of each frame sent
	passed map[string]map[string]uint64 // destination -> payload -> its sequence number
	bad    []string                     // a payload let through under two numbers
}

func (d *dropFirst) Send(to string, frame []byte) error {
	typ, seq, payload, ok := decodeFrame(frame)
	if !ok || typ != frameData {
		return d.lower.Send(to, frame)
	}
	d.mu.Lock()
	key := fmt.Sprint(to, "#", seq)
	first := !d.seen[key]
	d.seen[key] = true
	if !first {
		if prev, ok := d.passed[to][string(payload)]; ok && prev != seq {
			d.bad = append(d.bad, fmt.Sprintf("%s got %q as %d and as %d", to, payload, prev, seq))
		}
		if d.passed[to] == nil {
			d.passed[to] = make(map[string]uint64)
		}
		d.passed[to][string(payload)] = seq
	}
	d.mu.Unlock()
	if first {
		return nil
	}
	return d.lower.Send(to, frame)
}

// TestBroadcastControlBufferKeepsEachDestinationsFrame: one control buffer,
// built as the termination detector and the cluster runtime build the
// records they send to every peer, goes to three destinations through one
// reliable endpoint whose every first transmission is lost. Each destination
// stands at a different sequence number, and each gets the record exactly
// once, retransmitted under its own number: the frame the endpoint keeps for
// one destination is not rewritten by the send to the next.
func TestBroadcastControlBufferKeepsEachDestinationsFrame(t *testing.T) {
	net := NewMemNetwork()
	src := net.Endpoint("s:1")
	lo := &dropFirst{lower: copying{src}, seen: map[string]bool{}, passed: map[string]map[string]uint64{}}
	s := newReliable(src.Addr(), lo)
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		for batch := range src.ReceiveBatch() {
			for _, in := range batch {
				s.handleFrame(in.From, in.Data)
			}
		}
	}()
	go s.retransmitLoop()
	defer s.Close()
	dests := []string{"r:1", "r:2", "r:3"}
	var rs []*ReliableEndpoint
	for i, d := range dests {
		r := reliableOver(net.Endpoint(d))
		defer r.Close()
		rs = append(rs, r)
		for j := range i { // destination i stands at sequence number i+1
			if err := s.Send(d, []byte(fmt.Sprint("warm-up ", j))); err != nil {
				t.Fatal(err)
			}
		}
	}
	probe := wire.ControlMessage(src.Addr(), wire.Control{Type: wire.CtrlProbe, Wave: 9})
	for _, d := range dests {
		if err := s.Send(d, probe); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range rs {
		// Retransmissions keep no order: the record may overtake a warm-up.
		records := 0
		for got := 0; got < i+1; got++ {
			select {
			case m := <-r.Receive():
				if bytes.Equal(m.Data, probe) {
					records++
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s: %d of %d datagrams delivered", dests[i], got, i+1)
			}
		}
		if records != 1 {
			t.Errorf("%s: the record arrived %d times among %d datagrams, want once", dests[i], records, i+1)
		}
		select {
		case m := <-r.Receive():
			t.Errorf("%s: a datagram delivered twice: %x", dests[i], m.Data)
		case <-time.After(3 * retransmitInterval):
		}
	}
	lo.mu.Lock()
	defer lo.mu.Unlock()
	for i, d := range dests {
		if seq, ok := lo.passed[d][string(probe)]; !ok || seq != uint64(i+1) {
			t.Errorf("%s: the record went out as sequence number %d (sent: %v), want %d", d, seq, ok, i+1)
		}
	}
	for _, b := range lo.bad {
		t.Error(b)
	}
}

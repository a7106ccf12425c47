package transport

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMemNetworkDelivery(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a:1")
	b := net.Endpoint("b:1")
	if err := a.Send("b:1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Receive():
		if m.From != "a:1" || string(m.Data) != "hello" {
			t.Errorf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery")
	}
}

func TestMemNetworkUnknownAddr(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a:1")
	if err := a.Send("nowhere:1", []byte("x")); err != ErrUnknownAddr {
		t.Errorf("want ErrUnknownAddr, got %v", err)
	}
}

func TestMemEndpointClosed(t *testing.T) {
	net := NewMemNetwork()
	a := net.Endpoint("a:1")
	net.Endpoint("b:1")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send("b:1", []byte("x")); err != ErrClosed {
		t.Errorf("want ErrClosed, got %v", err)
	}
	// receive channel must close
	select {
	case _, ok := <-a.Receive():
		if ok {
			t.Error("expected closed channel")
		}
	case <-time.After(2 * time.Second):
		t.Error("receive channel did not close")
	}
}

func TestUnboundedQueueNoSenderBlocking(t *testing.T) {
	// A sender must never block on a receiver that is not draining —
	// blocking would deadlock symmetric protocols.
	net := NewMemNetwork()
	a := net.Endpoint("a:1")
	net.Endpoint("b:1")
	done := make(chan struct{})
	go func() {
		for i := 0; i < 10000; i++ {
			if err := a.Send("b:1", []byte("x")); err != nil {
				t.Error(err)
				break
			}
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sender blocked on undrained receiver")
	}
}

// TestQueueHandOffIsOneFIFOStream: one consumer taking datagrams through
// Receive, through ReceiveBatch and through a select over both, in a random
// interleaving and while the producer is still pushing, sees every datagram
// exactly once and in push order — the two channels are two views of one
// queue, and a batch is the queue's prefix, never a copy the single channel
// also serves.
func TestQueueHandOffIsOneFIFOStream(t *testing.T) {
	const n = 100000
	q := newQueue()
	defer q.close()
	go func() {
		for i := uint64(0); i < n; i++ {
			if !q.push(InMsg{From: "p", Data: binary.LittleEndian.AppendUint64(nil, i)}) {
				t.Error("push on an open queue failed")
				return
			}
		}
	}()
	rng := rand.New(rand.NewSource(1))
	next, batches, longest := uint64(0), 0, 0
	take := func(m InMsg) {
		if got := binary.LittleEndian.Uint64(m.Data); got != next {
			t.Fatalf("datagram %d delivered where %d was due: lost, duplicated or reordered", got, next)
		}
		next++
	}
	takeAll := func(ms []InMsg) {
		if len(ms) == 0 {
			t.Fatal("empty batch handed over")
		}
		batches++
		longest = max(longest, len(ms))
		for _, m := range ms {
			take(m)
		}
	}
	timeout := time.After(60 * time.Second)
	for next < n {
		single, batch := q.out, q.batches()
		switch rng.Intn(3) {
		case 0:
			batch = nil
		case 1:
			single = nil
		}
		select {
		case m := <-single:
			take(m)
		case ms := <-batch:
			takeAll(ms)
		case <-timeout:
			t.Fatalf("stalled after %d of %d datagrams", next, n)
		}
	}
	if batches == 0 || longest < 2 {
		t.Errorf("%d batches, longest %d: the batch hand-off never carried a backlog", batches, longest)
	}
	select {
	case m := <-q.out:
		t.Errorf("datagram %v delivered twice", m.Data)
	case ms := <-q.batches():
		t.Errorf("%d datagrams delivered twice", len(ms))
	case <-time.After(20 * time.Millisecond):
	}
}

// TestQueueBatchOfferTakesWhatArrivedWhileItStood: a datagram pushed while a
// batch offer stands is in the batch the consumer takes. The pump re-cuts its
// offer on every push, so a consumer that was busy while traffic arrived takes
// its whole backlog at once, not the part queued before the offer was made.
func TestQueueBatchOfferTakesWhatArrivedWhileItStood(t *testing.T) {
	q := newQueue()
	defer q.close()
	batch := q.batches()
	// standing waits until the pump has taken a push's wake-up (up to a
	// second) and then a little longer, so its offer stands.
	standing := func() {
		for deadline := time.Now().Add(time.Second); len(q.wake) > 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for round := range 3 {
		q.push(InMsg{From: "p", Data: []byte{byte(2 * round)}})
		standing()
		q.push(InMsg{From: "p", Data: []byte{byte(2*round + 1)}})
		standing()
		select {
		case ms := <-batch:
			if len(ms) != 2 || ms[0].Data[0] != byte(2*round) || ms[1].Data[0] != byte(2*round+1) {
				t.Fatalf("round %d: took a batch of %d datagrams, want both pushes, in order", round, len(ms))
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: no batch offered", round)
		}
	}
}

// TestQueueCloseReleasesPumpWithItemsQueued: closing a queue nobody is
// draining — with a backlog, whether or not batches were ever asked for —
// closes both channels (the pump's last act), discards the backlog and turns
// further pushes away.
func TestQueueCloseReleasesPumpWithItemsQueued(t *testing.T) {
	for _, batching := range []bool{false, true} {
		q := newQueue()
		for i := 0; i < 100; i++ {
			q.push(InMsg{Data: []byte{byte(i)}})
		}
		if batching {
			q.batches()
		}
		q.close()
		q.close() // idempotent
		if q.push(InMsg{}) {
			t.Error("push succeeded on a closed queue")
		}
		// An offer already made may still be taken; after it the channels
		// must report closed.
		delivered := 0
		timeout := time.After(5 * time.Second)
		for out, batch := q.out, q.batch; out != nil || batch != nil; {
			select {
			case _, ok := <-out:
				if !ok {
					out = nil
				} else {
					delivered++
				}
			case ms, ok := <-batch:
				if !ok {
					batch = nil
				} else {
					delivered += len(ms)
				}
			case <-timeout:
				t.Fatalf("batching=%v: pump still holds its channels open after close", batching)
			}
		}
		if delivered > 100 {
			t.Errorf("batching=%v: %d datagrams delivered from a backlog of 100", batching, delivered)
		}
	}
}

func TestMemNetworkListenAndClose(t *testing.T) {
	net := NewMemNetwork()
	ep, err := net.Listen("a:1")
	if err != nil {
		t.Fatal(err)
	}
	if ep.Addr() != "a:1" {
		t.Errorf("memnet must honour the hint, got %s", ep.Addr())
	}
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send("a:1", []byte("x")); err != ErrClosed {
		t.Errorf("send after network close: want ErrClosed, got %v", err)
	}
}

func TestMemNetworkConcurrentSends(t *testing.T) {
	net := NewMemNetwork()
	const peers = 8
	eps := make([]*MemEndpoint, peers)
	for i := range eps {
		eps[i] = net.Endpoint(fmt.Sprintf("n%d:1", i))
	}
	var wg sync.WaitGroup
	for i := 0; i < peers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < peers; j++ {
				if j != i {
					_ = eps[i].Send(fmt.Sprintf("n%d:1", j), []byte{byte(i)})
				}
			}
		}(i)
	}
	wg.Wait()
	// Every endpoint gets one datagram from each other endpoint.
	for i, ep := range eps {
		from := map[byte]bool{}
		for len(from) < peers-1 {
			select {
			case m := <-ep.Receive():
				if from[m.Data[0]] || int(m.Data[0]) == i {
					t.Fatalf("n%d: unexpected datagram from n%d", i, m.Data[0])
				}
				from[m.Data[0]] = true
			case <-time.After(2 * time.Second):
				t.Fatalf("n%d: %d of %d deliveries", i, len(from), peers-1)
			}
		}
	}
}

func TestUDPEndpointRoundTrip(t *testing.T) {
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

	if err := a.Send(b.Addr(), []byte("over udp")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-b.Receive():
		if string(m.Data) != "over udp" {
			t.Errorf("got %q", m.Data)
		}
		if m.From != a.Addr() {
			t.Errorf("from %s, want %s", m.From, a.Addr())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("UDP datagram not delivered")
	}
}

func TestUDPOversizeRejected(t *testing.T) {
	// The endpoint enforces the application-payload bound, so that its
	// framing never pushes a frame over what one UDP datagram carries.
	udpNet := NewUDPNetwork()
	defer udpNet.Close()
	a, err := udpNet.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(a.Addr(), make([]byte, MaxDatagram+1)); err == nil {
		t.Error("an endpoint should reject payloads that cannot be framed")
	}
	if err := a.Send(a.Addr(), make([]byte, MaxDatagram)); err != nil {
		t.Errorf("a payload of MaxDatagram bytes: %v", err)
	}
}

// TestUDPEndpointRunsThreeGoroutines: a UDP endpoint is its socket's read
// loop, the pump of the one queue the consumer reads and the retransmit loop —
// the read loop acknowledges, deduplicates and queues in line.
func TestUDPEndpointRunsThreeGoroutines(t *testing.T) {
	udpNet := NewUDPNetwork()
	defer udpNet.Close()
	before := goroutinesByID()
	if _, err := udpNet.Listen(""); err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for id, fn := range goroutinesByID() {
		if _, old := before[id]; !old && strings.HasPrefix(fn, "secureblox/") {
			got[fn]++
		}
	}
	want := map[string]int{
		"secureblox/internal/transport.(*ReliableEndpoint).readLoop":       1,
		"secureblox/internal/transport.(*queue).pump":                      1,
		"secureblox/internal/transport.(*ReliableEndpoint).retransmitLoop": 1,
	}
	if !maps.Equal(got, want) {
		t.Errorf("Listen started %v, want %v", got, want)
	}
}

// goroutinesByID maps the id of each of the process's goroutines to the
// function it was started with: the outermost frame of its stack. A goroutine
// created but not yet scheduled shows only a wrapper, so it waits (up to a
// second) for every goroutine to have run.
func goroutinesByID() map[string]string {
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fns, unscheduled := make(map[string]string), false
		for _, g := range strings.Split(string(buf), "\n\n") {
			lines := strings.Split(g, "\n")
			id, fn := strings.Fields(lines[0])[1], ""
			for _, line := range lines[1:] {
				if strings.HasPrefix(line, "created by ") {
					break
				}
				if line != "" && !strings.HasPrefix(line, "\t") {
					fn = line[:strings.LastIndexByte(line, '(')]
				}
			}
			fns[id] = fn
			unscheduled = unscheduled || fn == "runtime.goexit"
		}
		if !unscheduled || time.Now().After(deadline) {
			return fns
		}
	}
}

package transport

import (
	"encoding/binary"
	"fmt"
	"math/rand"
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
	s := net.Stats("a:1")
	if s.BytesSent != 5 || s.MsgsSent != 1 {
		t.Errorf("sender stats wrong: %+v", s)
	}
	rs := net.Stats("b:1")
	if rs.BytesRecv != 5 || rs.MsgsRecv != 1 {
		t.Errorf("receiver stats wrong: %+v", rs)
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
	var total int64
	for i := 0; i < peers; i++ {
		total += net.Stats(fmt.Sprintf("n%d:1", i)).MsgsRecv
	}
	if total != peers*(peers-1) {
		t.Errorf("want %d deliveries, got %d", peers*(peers-1), total)
	}
}

func TestUDPEndpointRoundTrip(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

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
	if s := a.Stats(); s.BytesSent == 0 {
		t.Error("sender stats not recorded")
	}
}

func TestUDPOversizeRejected(t *testing.T) {
	a, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(a.Addr(), make([]byte, maxRawDatagram+1)); err == nil {
		t.Error("oversize datagram should be rejected")
	}
	// The reliable layer enforces the application-payload bound so that its
	// framing never pushes a frame over the raw limit.
	r := NewReliable(a, ReliableConfig{})
	defer r.Close()
	if err := r.Send(r.Addr(), make([]byte, MaxDatagram+reliableOverhead)); err == nil {
		t.Error("reliable layer should reject payloads that cannot be framed")
	}
}

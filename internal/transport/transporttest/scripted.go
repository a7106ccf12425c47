// Package transporttest provides endpoints for tests: a scripted one for code
// that consumes datagrams in batches, and a lossy wrapper.
package transporttest

import (
	"sync"

	"secureblox/internal/transport"
)

// Sent is one datagram a Scripted endpoint was asked to send.
type Sent struct {
	To   string
	Data []byte
}

// Scripted is a transport.Transport whose traffic the test dictates and
// observes: every Deliver reaches the consumer as exactly one ReceiveBatch
// hand-off, and Send records the datagram instead of transmitting it. Its
// Receive channel never yields a datagram. Close closes the Receive channel
// only: a Deliver may be mid-send on the batch channel, so a consumer of that
// one must stop on its own signal, as dist.Node does.
type Scripted struct {
	addr   string
	single chan transport.InMsg
	batch  chan []transport.InMsg
	done   chan struct{}

	mu     sync.Mutex
	sent   []Sent
	closed bool
}

// NewScripted returns an open endpoint with the given address.
func NewScripted(addr string) *Scripted {
	return &Scripted{
		addr:   addr,
		single: make(chan transport.InMsg),
		batch:  make(chan []transport.InMsg),
		done:   make(chan struct{}),
	}
}

// Deliver hands msgs to the consumer as one batch, returning once the
// consumer has taken it; false means the endpoint was closed first.
func (s *Scripted) Deliver(msgs ...transport.InMsg) bool {
	select {
	case s.batch <- msgs:
		return true
	case <-s.done:
		return false
	}
}

// Sent returns a snapshot of the datagrams sent so far, in order.
func (s *Scripted) Sent() []Sent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Sent(nil), s.sent...)
}

// Addr implements transport.Transport.
func (s *Scripted) Addr() string { return s.addr }

// Send implements transport.Transport by recording the datagram.
func (s *Scripted) Send(to string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return transport.ErrClosed
	}
	s.sent = append(s.sent, Sent{To: to, Data: append([]byte(nil), data...)})
	return nil
}

// Receive implements transport.Transport.
func (s *Scripted) Receive() <-chan transport.InMsg { return s.single }

// ReceiveBatch implements transport.Transport.
func (s *Scripted) ReceiveBatch() <-chan []transport.InMsg { return s.batch }

// Close implements transport.Transport. Idempotent.
func (s *Scripted) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.done)
		close(s.single)
	}
	return nil
}

// Lossy wraps inner so that every datagram it sends is dropped, duplicated or
// corrupted with the given probabilities, reproducibly per seed: a started
// chaos engine with one rule for every link. It models what raw UDP can do to
// traffic, so the reliable layer and the termination-detection protocol can
// be exercised against loss without depending on real packet behaviour.
func Lossy(inner transport.Transport, seed int64, drop, dup, garble float64) transport.Transport {
	e := transport.NewChaosEngine(&transport.ChaosPlan{
		Seed:  seed,
		Links: []transport.ChaosLink{{From: "*", To: "*", Drop: drop, Dup: dup, Garble: garble}},
	})
	e.Start()
	return e.Wrap(inner)
}

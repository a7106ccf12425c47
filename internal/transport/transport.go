// Package transport provides the message-passing substrate for distributed
// SecureBlox execution: a Transport interface, an in-process simulated
// network (memnet) and a real UDP transport (udpnet) for multi-process
// deployments — the paper's nodes exchange tuples over UDP (§5.1).
package transport

import (
	"errors"
	"sync"
)

// ErrClosed is returned by operations on a closed transport.
var ErrClosed = errors.New("transport: closed")

// ErrUnknownAddr is returned when sending to an unregistered address.
var ErrUnknownAddr = errors.New("transport: unknown address")

// ErrAddrInUse is returned by Network.Listen when the hinted address is
// already bound — the memnet counterpart of EADDRINUSE, so accidentally
// sharing one network between two clusters fails loudly instead of
// cross-wiring their endpoints.
var ErrAddrInUse = errors.New("transport: address already in use")

// InMsg is a received datagram. Its Data is handed over owned: no transport
// writes to it or reuses it once delivered, so the consumer may keep views of
// it (wire.DecodeMessage returns them). The consumer must not write to it
// either — one buffer may arrive twice (a duplicated datagram) or at several
// endpoints (one probe sent to many) — and Data has no spare capacity, so an
// append to it copies instead of writing into storage another holder shares.
type InMsg struct {
	From string
	Data []byte
}

// Transport is one node's endpoint: datagram send plus a receive channel.
type Transport interface {
	// Addr is this endpoint's address ("host:port").
	Addr() string
	// Send transmits data to another endpoint. It hands data over: the
	// caller must not write to it afterwards, since an in-process transport
	// delivers that very buffer. Its spare capacity, beyond len(data), is the
	// transport's too: a reliable endpoint writes its frame trailer there
	// when FrameRoom bytes are free, and keeps the frame until it is
	// acknowledged, so a sender that leaves FrameRoom spare has its datagram
	// sent without a copy. A buffer sent to several destinations must have no
	// spare capacity (capped at its length, data[:len(data):len(data)]), or
	// each send would overwrite the sequence number and CRC of the frame the
	// previous one keeps; the endpoint then frames a copy.
	Send(to string, data []byte) error
	// Receive returns the channel of incoming datagrams. It is closed when
	// the transport closes.
	Receive() <-chan InMsg
	// ReceiveBatch returns a channel that hands over, in arrival order, the
	// whole backlog a busy consumer left behind as one slice the consumer
	// owns: everything queued when it takes the batch, since an offer is
	// re-cut on every arrival. It draws from the same queue as Receive: a
	// datagram is delivered by one or the other, never both, and a single
	// consumer alternating between the two sees one FIFO stream. Closed when
	// the transport closes.
	ReceiveBatch() <-chan []InMsg
	// Close shuts the endpoint down.
	Close() error
}

// Network constructs the endpoints of one cluster deployment. The cluster
// driver is written against this interface only, so the same scenario runs
// unchanged over the in-process simulated network and over real UDP.
type Network interface {
	// Listen opens one endpoint. hint is the caller's preferred address;
	// implementations backed by real sockets may bind elsewhere (e.g. an
	// ephemeral loopback port), so the returned endpoint's Addr() — not the
	// hint — is authoritative and is what peers must send to.
	Listen(hint string) (Transport, error)
	// Close shuts down every endpoint the network has handed out that is
	// not already closed. Closing an endpoint twice is harmless.
	Close() error
}

// queue is an unbounded FIFO feeding two channels, so senders never block on
// a slow receiver (which would deadlock symmetric protocols). The pump offers
// the head on out and, once a consumer has asked for batches, at the same
// time everything it holds on batch; a push while that offer stands wakes the
// pump to re-cut it, so a consumer that was busy takes its whole backlog.
// Whichever the consumer takes is removed, so the two channels carry one FIFO
// stream between them. (The batch offer and its re-cut wait for the first
// batches call because a third select case costs an endpoint that is only ever
// read through out about 15 % of its memnet delivery rate.) Closing the queue
// discards whatever is still undelivered: a closed endpoint has no reader,
// and the delivery goroutine must not block forever waiting for one.
type queue struct {
	mu       sync.Mutex
	items    []InMsg
	out      chan InMsg
	batch    chan []InMsg
	wake     chan struct{} // a push or close, for a pump waiting on an empty queue or re-cutting a batch offer
	ctl      chan struct{} // interrupts an offer: closed by close, one token from the first batches call
	batching bool
	closed   bool
}

func newQueue() *queue {
	q := &queue{
		out: make(chan InMsg), batch: make(chan []InMsg),
		wake: make(chan struct{}, 1), ctl: make(chan struct{}, 1),
	}
	go q.pump()
	return q
}

func (q *queue) push(m InMsg) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, m)
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return true
}

// batches returns the batch channel; from its first call on the pump offers
// the backlog there too.
func (q *queue) batches() <-chan []InMsg {
	q.mu.Lock()
	if !q.batching && !q.closed {
		q.batching = true
		q.ctl <- struct{}{} // the only token ever sent: the buffer has room
	}
	q.mu.Unlock()
	return q.batch
}

func (q *queue) pump() {
	defer close(q.out)
	defer close(q.batch)
	taken := 0 // how many items the last offer delivered
	for {
		q.mu.Lock()
		// Only the pump removes items, so what it offered is still the
		// queue's prefix now.
		q.items = q.items[taken:]
		// The offer is capped at its length: the consumer owns it, and a
		// later push must grow q.items elsewhere, not into the offer's tail.
		all := q.items[:len(q.items):len(q.items)]
		closed, batching := q.closed, q.batching
		q.mu.Unlock()
		taken = 0
		switch {
		case closed:
			return
		case len(all) == 0:
			<-q.wake
		case !batching:
			select {
			case q.out <- all[0]:
				taken = 1
			case <-q.ctl:
			}
		default:
			select {
			case q.out <- all[0]:
				taken = 1
			case q.batch <- all:
				taken = len(all)
			case <-q.wake:
			case <-q.ctl:
			}
		}
	}
}

func (q *queue) close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.ctl)
	}
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

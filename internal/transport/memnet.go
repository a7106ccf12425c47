package transport

import (
	"fmt"
	"net"
	"sync"
)

// MemNetwork is an in-process simulated network: endpoints exchange
// datagrams through unbounded queues, and the network keeps per-endpoint
// traffic statistics. It stands in for the paper's Gigabit cluster; see
// DESIGN.md for why the substitution preserves the evaluation's shape.
// Quiescence of a computation running over it is observed the same way as
// over real sockets — by the wire-level termination-detection protocol in
// internal/dist — so swapping MemNetwork for UDPNetwork changes nothing
// above the Transport interface.
type MemNetwork struct {
	mu        sync.Mutex
	endpoints map[string]*MemEndpoint
	stats     map[string]*Stats
	nextPort  int // ephemeral-port counter for port-0 hints

	// OnDeliver, if set, is invoked (outside locks) for every delivered
	// datagram — used by tests for fault injection.
	OnDeliver func(from, to string, data []byte)
}

// NewMemNetwork returns an empty simulated network.
func NewMemNetwork() *MemNetwork {
	return &MemNetwork{
		endpoints: make(map[string]*MemEndpoint),
		stats:     make(map[string]*Stats),
	}
}

// Endpoint registers (or returns) the endpoint with the given address.
func (n *MemNetwork) Endpoint(addr string) *MemEndpoint {
	n.mu.Lock()
	defer n.mu.Unlock()
	if ep, ok := n.endpoints[addr]; ok {
		return ep
	}
	ep := &MemEndpoint{net: n, addr: addr, q: newQueue()}
	n.endpoints[addr] = ep
	n.stats[addr] = &Stats{}
	return ep
}

// memEphemeralBase is where the simulated network starts assigning ports
// for port-0 hints, mirroring the OS ephemeral range.
const memEphemeralBase = 49152

// Listen implements Network: the simulated network honours the hinted
// address exactly, failing like a real bind would if it is already taken.
// A hint with port 0 behaves like an OS ephemeral bind: the network assigns
// a fresh port on the hinted host and the returned endpoint's Addr() — not
// the hint — is the authoritative, sendable address, exactly as over real
// sockets (the join handshake relies on this parity). Check and
// registration share one critical section so concurrent Listens with the
// same hint cannot both succeed.
func (n *MemNetwork) Listen(hint string) (Transport, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	addr := hint
	if host, port, err := net.SplitHostPort(hint); err == nil && port == "0" {
		for {
			n.nextPort++
			addr = net.JoinHostPort(host, fmt.Sprint(memEphemeralBase+n.nextPort-1))
			if _, taken := n.endpoints[addr]; !taken {
				break
			}
		}
	} else if _, taken := n.endpoints[addr]; taken {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	ep := &MemEndpoint{net: n, addr: addr, q: newQueue()}
	n.endpoints[addr] = ep
	n.stats[addr] = &Stats{}
	return ep, nil
}

// Close implements Network, closing every registered endpoint.
func (n *MemNetwork) Close() error {
	n.mu.Lock()
	eps := make([]*MemEndpoint, 0, len(n.endpoints))
	for _, ep := range n.endpoints {
		eps = append(eps, ep)
	}
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

// Stats returns a copy of the traffic counters for an address.
func (n *MemNetwork) Stats(addr string) Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	if s, ok := n.stats[addr]; ok {
		return *s
	}
	return Stats{}
}

// MemEndpoint is one node's attachment to a MemNetwork.
type MemEndpoint struct {
	net    *MemNetwork
	addr   string
	q      *queue
	closed bool
	mu     sync.Mutex
}

// Addr implements Transport.
func (ep *MemEndpoint) Addr() string { return ep.addr }

// Send implements Transport.
func (ep *MemEndpoint) Send(to string, data []byte) error {
	ep.mu.Lock()
	if ep.closed {
		ep.mu.Unlock()
		return ErrClosed
	}
	ep.mu.Unlock()

	ep.net.mu.Lock()
	dst, ok := ep.net.endpoints[to]
	if !ok {
		ep.net.mu.Unlock()
		return ErrUnknownAddr
	}
	s := ep.net.stats[ep.addr]
	s.BytesSent += int64(len(data))
	s.MsgsSent++
	rs := ep.net.stats[to]
	rs.BytesRecv += int64(len(data))
	rs.MsgsRecv++
	cb := ep.net.OnDeliver
	ep.net.mu.Unlock()

	if cb != nil {
		cb(ep.addr, to, data)
	}
	if !dst.q.push(InMsg{From: ep.addr, Data: data}) {
		return ErrClosed
	}
	return nil
}

// Receive implements Transport.
func (ep *MemEndpoint) Receive() <-chan InMsg { return ep.q.out }

// ReceiveBatch implements Transport.
func (ep *MemEndpoint) ReceiveBatch() <-chan []InMsg { return ep.q.batches() }

// Close implements Transport.
func (ep *MemEndpoint) Close() error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if !ep.closed {
		ep.closed = true
		ep.q.close()
	}
	return nil
}

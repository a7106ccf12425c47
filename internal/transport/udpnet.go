package transport

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
)

// MaxDatagram is the largest application payload the transports carry;
// callers batching tuples must stay under it (dist.Node splits batches).
const MaxDatagram = 60000

// recvBuffer is the receive buffer every endpoint's socket asks for. The
// kernel default (Linux rmem_default, typically 212 992 bytes) holds about
// three near-MaxDatagram datagrams, so a burst of bulk exports overflows it
// and costs a retransmit interval per lost first copy; the kernel caps the
// request at rmem_max.
const recvBuffer = 4 << 20

// udpSocket is an endpoint's socket, the lower half of its reliable layer.
type udpSocket struct{ conn *net.UDPConn }

// Send writes one datagram. A numeric address is parsed in place and sent to
// without allocating; a host name is resolved on every send.
func (s udpSocket) Send(to string, data []byte) error {
	if ap, err := netip.ParseAddrPort(to); err == nil {
		_, err = s.conn.WriteToUDPAddrPort(data, ap)
		return err
	}
	ua, err := net.ResolveUDPAddr("udp", to)
	if err != nil {
		return err
	}
	_, err = s.conn.WriteToUDP(data, ua)
	return err
}

func (s udpSocket) Close() error { return s.conn.Close() }

// maxPeerNames bounds the read loop's cache of sender address strings; past
// it the cache starts over, so spoofed sources cannot grow it.
const maxPeerNames = 256

// readLoop hands a copy of every datagram the socket receives to
// handleFrame, until the socket closes. It reads into one buffer, which
// nothing but the copy reads, so it stays on the loop's stack, and names each
// sender from a cache of address strings: the copy is the one allocation a
// datagram costs.
func (r *ReliableEndpoint) readLoop(conn *net.UDPConn) {
	defer r.wg.Done()
	buf := make([]byte, MaxDatagram+1024)
	names := make(map[netip.AddrPort]string)
	for {
		n, from, err := conn.ReadFromUDPAddrPort(buf)
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			continue
		}
		from = netip.AddrPortFrom(from.Addr().Unmap(), from.Port())
		name, ok := names[from]
		if !ok {
			if len(names) >= maxPeerNames {
				clear(names)
			}
			name = from.String()
			names[from] = name
		}
		data := make([]byte, n)
		copy(data, buf[:n])
		r.handleFrame(name, data)
	}
}

// UDPNetwork implements Network over real UDP sockets: each Listen binds a
// socket and runs the reliable ack/retransmit layer on it, so the cluster
// driver's message-counting termination detection is correct even though
// raw UDP drops, duplicates and reorders datagrams.
type UDPNetwork struct {
	// Strict makes Listen bind the hinted address exactly or fail. Off
	// (the in-process driver's mode), hints are ignored entirely and every
	// endpoint binds an ephemeral loopback port — the driver's
	// simulated 10.0.0.x hints must never reach a real bind, where they
	// could claim a routable interface on a fixed port. Multi-process
	// deployments set Strict: a node that silently bound somewhere other
	// than its configured address could never be found by its peers.
	Strict bool
	// Chaos, when set, interposes a scriptable fault engine on every
	// endpoint's sends, acks included: injected drops/garbling become
	// retransmission latency and injected partitions become silence,
	// exactly as real packet faults would.
	Chaos *ChaosEngine

	mu  sync.Mutex
	eps []*ReliableEndpoint
}

// NewUDPNetwork returns a loopback UDP network.
func NewUDPNetwork() *UDPNetwork { return &UDPNetwork{} }

// Listen implements Network. In Strict mode the hint is bound exactly as
// given (a port-0 hint binds an OS-assigned ephemeral port on the hinted
// host); otherwise the hint is ignored and an ephemeral loopback port is
// bound. Either way the returned endpoint's Addr() is the OS-assigned
// bound address and is what peers must send to.
func (n *UDPNetwork) Listen(hint string) (Transport, error) {
	var bind string
	if n.Strict {
		host, port, err := net.SplitHostPort(hint)
		if err != nil || host == "" {
			return nil, fmt.Errorf("transport: unusable listen address %q", hint)
		}
		bind = net.JoinHostPort(host, port)
	} else {
		bind = "127.0.0.1:0"
	}
	ua, err := net.ResolveUDPAddr("udp", bind)
	var conn *net.UDPConn
	if err == nil {
		conn, err = net.ListenUDP("udp", ua)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: bind %s: %w", bind, err)
	}
	if err := conn.SetReadBuffer(recvBuffer); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: receive buffer on %s: %w", bind, err)
	}
	addr := conn.LocalAddr().String()
	var out lower = udpSocket{conn}
	if n.Chaos != nil {
		out = n.Chaos.wrap(addr, out)
	}
	ep := newReliable(addr, out)
	ep.wg.Add(2)
	go ep.readLoop(conn)
	go ep.retransmitLoop()
	n.mu.Lock()
	n.eps = append(n.eps, ep)
	n.mu.Unlock()
	return ep, nil
}

// Close implements Network, closing every endpoint still open.
func (n *UDPNetwork) Close() error {
	n.mu.Lock()
	eps := append([]*ReliableEndpoint(nil), n.eps...)
	n.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
	return nil
}

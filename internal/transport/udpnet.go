package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
)

// MaxDatagram is the largest application payload the transports carry;
// callers batching tuples must stay under it (dist.Node splits batches).
const MaxDatagram = 60000

// maxRawDatagram leaves headroom above MaxDatagram for the reliable
// layer's framing, while staying under the UDP payload ceiling (~65507).
const maxRawDatagram = MaxDatagram + 64

// UDPEndpoint is a real UDP transport, used when SecureBlox instances run
// as separate processes (the deployment mode of the paper's cluster).
type UDPEndpoint struct {
	conn   *net.UDPConn
	addr   string
	q      *queue
	closed atomic.Bool
	wg     sync.WaitGroup

	statsMu sync.Mutex
	stats   Stats
}

// ListenUDP opens a UDP endpoint on addr ("127.0.0.1:0" picks a free port).
func ListenUDP(addr string) (*UDPEndpoint, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	ep := &UDPEndpoint{conn: conn, addr: conn.LocalAddr().String(), q: newQueue()}
	ep.wg.Add(1)
	go ep.readLoop()
	return ep, nil
}

func (ep *UDPEndpoint) readLoop() {
	defer ep.wg.Done()
	buf := make([]byte, MaxDatagram+1024)
	for {
		n, from, err := ep.conn.ReadFromUDP(buf)
		if err != nil {
			if ep.closed.Load() {
				ep.q.close()
				return
			}
			continue
		}
		data := make([]byte, n)
		copy(data, buf[:n])
		ep.statsMu.Lock()
		ep.stats.BytesRecv += int64(n)
		ep.stats.MsgsRecv++
		ep.statsMu.Unlock()
		ep.q.push(InMsg{From: from.String(), Data: data})
	}
}

// Addr implements Transport.
func (ep *UDPEndpoint) Addr() string { return ep.addr }

// Send implements Transport.
func (ep *UDPEndpoint) Send(to string, data []byte) error {
	if ep.closed.Load() {
		return ErrClosed
	}
	if len(data) > maxRawDatagram {
		return fmt.Errorf("transport: datagram of %d bytes exceeds limit %d", len(data), maxRawDatagram)
	}
	ua, err := net.ResolveUDPAddr("udp", to)
	if err != nil {
		return err
	}
	n, err := ep.conn.WriteToUDP(data, ua)
	if err != nil {
		return err
	}
	ep.statsMu.Lock()
	ep.stats.BytesSent += int64(n)
	ep.stats.MsgsSent++
	ep.statsMu.Unlock()
	return nil
}

// Receive implements Transport.
func (ep *UDPEndpoint) Receive() <-chan InMsg { return ep.q.out }

// ReceiveBatch implements Transport.
func (ep *UDPEndpoint) ReceiveBatch() <-chan []InMsg { return ep.q.batches() }

// Stats returns this endpoint's traffic counters.
func (ep *UDPEndpoint) Stats() Stats {
	ep.statsMu.Lock()
	defer ep.statsMu.Unlock()
	return ep.stats
}

// Close implements Transport.
func (ep *UDPEndpoint) Close() error {
	if ep.closed.Swap(true) {
		return nil
	}
	err := ep.conn.Close()
	ep.wg.Wait()
	return err
}

// UDPNetwork implements Network over real UDP sockets: each Listen binds a
// socket and wraps it in the reliable ack/retransmit layer, so the cluster
// driver's message-counting termination detection is correct even though
// raw UDP drops, duplicates and reorders datagrams.
type UDPNetwork struct {
	// BindHost is the interface endpoints bind to in the default
	// hint-ignoring mode. Defaults to loopback.
	BindHost string
	// Strict makes Listen bind the hinted address exactly or fail. Off
	// (the in-process driver's mode), hints are ignored entirely and every
	// endpoint binds an ephemeral port on BindHost — the driver's
	// simulated 10.0.0.x hints must never reach a real bind, where they
	// could claim a routable interface on a fixed port. Multi-process
	// deployments set Strict: a node that silently bound somewhere other
	// than its configured address could never be found by its peers.
	Strict bool
	// Reliability tunes the ack/retransmit layer shared by all endpoints.
	Reliability ReliableConfig
	// Chaos, when set, interposes a scriptable fault engine between each
	// raw socket and its reliable layer: injected drops/garbling become
	// retransmission latency and injected partitions become silence,
	// exactly as real packet faults would.
	Chaos *ChaosEngine

	mu  sync.Mutex
	eps []*ReliableEndpoint
}

// NewUDPNetwork returns a loopback UDP network with default reliability.
func NewUDPNetwork() *UDPNetwork { return &UDPNetwork{} }

// Listen implements Network. In Strict mode the hint is bound exactly as
// given (a port-0 hint binds an OS-assigned ephemeral port on the hinted
// host); otherwise the hint is ignored and an ephemeral port on BindHost
// is bound. Either way the returned endpoint's Addr() is the OS-assigned
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
		host := n.BindHost
		if host == "" {
			host = "127.0.0.1"
		}
		bind = host + ":0"
	}
	raw, err := ListenUDP(bind)
	if err != nil {
		return nil, fmt.Errorf("transport: bind %s: %w", bind, err)
	}
	var lower Transport = raw
	if n.Chaos != nil {
		lower = n.Chaos.Wrap(raw)
	}
	ep := NewReliable(lower, n.Reliability)
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

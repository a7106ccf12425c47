package transport

import (
	"net"
	"syscall"
	"testing"
)

// rcvbuf reads back the receive buffer the kernel granted a socket.
func rcvbuf(t *testing.T, conn *net.UDPConn) int {
	t.Helper()
	rc, err := conn.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var size int
	var gerr error
	if err := rc.Control(func(fd uintptr) {
		size, gerr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		t.Fatal(err)
	}
	if gerr != nil {
		t.Fatal(gerr)
	}
	return size
}

// TestUDPEndpointReceiveBufferExceedsTheDefault: every endpoint's socket asks
// for recvBuffer, and the kernel grants more than it gives a socket nobody
// sized, so a burst of near-MaxDatagram datagrams is not dropped at the
// socket.
func TestUDPEndpointReceiveBufferExceedsTheDefault(t *testing.T) {
	plain, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	unset := rcvbuf(t, plain)

	n := NewUDPNetwork()
	defer n.Close()
	ep, err := n.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	granted := rcvbuf(t, ep.(*ReliableEndpoint).out.(udpSocket).conn)
	if granted <= unset {
		t.Fatalf("endpoint socket has a %d-byte receive buffer, an unset one %d", granted, unset)
	}
	t.Logf("receive buffer: %d bytes granted, %d unset", granted, unset)
}

package transport

import (
	"runtime"
	"testing"
)

// sink is a lower half whose sends succeed and vanish.
type sink struct{}

func (sink) Send(string, []byte) error { return nil }
func (sink) Close() error              { return nil }

// TestReliableSendCopiesThePayloadOnce: a reliable send costs the frame — one
// allocation holding the payload's one copy behind the header — and the record
// that tracks it until acknowledged, nothing in proportion to the payload
// beyond that copy.
func TestReliableSendCopiesThePayloadOnce(t *testing.T) {
	const size = 8 << 10
	// No retransmit loop runs: nothing but the sends allocates.
	r := newReliable("127.0.0.1:1", sink{})
	defer r.Close()
	data := make([]byte, size)
	allocs := testing.AllocsPerRun(200, func() {
		if err := r.Send("127.0.0.1:2", data); err != nil {
			t.Fatal(err)
		}
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const sends = 200
	for range sends {
		if err := r.Send("127.0.0.1:2", data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	perSend := float64(m1.TotalAlloc-m0.TotalAlloc) / sends
	t.Logf("%.0f allocations, %.0f bytes per %d-byte send", allocs, perSend, size)
	if allocs > 2 {
		t.Errorf("a reliable send makes %.0f allocations, want at most 2 (the frame and its record)", allocs)
	}
	// One copy, rounded up to the allocator's size class (9 472 bytes for an
	// 8 KiB frame); a second copy would double it.
	if perSend > size*5/4 {
		t.Errorf("a reliable send of %d bytes allocates %.0f bytes, want one copy of the payload", size, perSend)
	}
}

// TestUDPSendToNumericAddressAllocatesNothing: an endpoint's socket parses a
// numeric address in place and writes the datagram from the caller's buffer.
func TestUDPSendToNumericAddressAllocatesNothing(t *testing.T) {
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
	sock := a.(*ReliableEndpoint).out
	// Not a frame: b's read loop drops it as garbage, and nothing awaits an ack.
	data := make([]byte, 512)
	allocs := testing.AllocsPerRun(100, func() {
		if err := sock.Send(b.Addr(), data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("a UDP send to %s makes %.0f allocations, want 0", b.Addr(), allocs)
	}
}

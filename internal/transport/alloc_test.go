package transport

import (
	"runtime"
	"testing"
	"time"
)

// sink is a lower half whose sends succeed and vanish.
type sink struct{}

func (sink) Send(string, []byte) error { return nil }
func (sink) Close() error              { return nil }

// sendCost is what one reliable send of data to a lower half that discards
// it allocates, averaged over many: allocations and bytes.
func sendCost(t *testing.T, data []byte) (allocs, bytes float64) {
	t.Helper()
	// No retransmit loop runs: nothing but the sends allocates.
	r := newReliable("127.0.0.1:1", sink{})
	defer r.Close()
	allocs = testing.AllocsPerRun(200, func() {
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
	return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / sends
}

// TestReliableSendOfABufferWithRoomCostsItsRecord: a datagram sent with
// FrameRoom bytes of spare capacity is framed in place, so its send costs the
// record that tracks it until acknowledged and nothing in proportion to the
// payload; one without room costs a framed copy besides. (Sending one buffer
// again and again, as here, rewrites the trailer the earlier frames keep:
// harmless to a lower half that discards them, and what Transport.Send rules
// out for real destinations.)
func TestReliableSendOfABufferWithRoomCostsItsRecord(t *testing.T) {
	const size = 8 << 10
	allocs, perSend := sendCost(t, make([]byte, size, size+FrameRoom))
	t.Logf("with room: %.0f allocations, %.0f bytes per %d-byte send", allocs, perSend, size)
	if allocs > 1 || perSend > 128 {
		t.Errorf("a reliable send of a %d-byte buffer with room makes %.0f allocations of %.0f bytes, want at most 1 (its record) and 128 bytes",
			size, allocs, perSend)
	}
	allocs, perSend = sendCost(t, make([]byte, size))
	t.Logf("without room: %.0f allocations, %.0f bytes per %d-byte send", allocs, perSend, size)
	// One copy, rounded up to the allocator's size class (9 472 bytes for an
	// 8 KiB frame); a second copy would double it.
	if allocs > 2 || perSend > size*5/4 {
		t.Errorf("a reliable send of a %d-byte buffer without room makes %.0f allocations of %.0f bytes, want at most 2 (the frame and its record) and one copy",
			size, allocs, perSend)
	}
}

// TestUDPReceiveAllocatesOnlyTheDatagramCopy: a datagram arriving at a UDP
// endpoint costs one allocation, the read loop's copy of it; a data frame's
// payload is handed to the consumer as a view of that copy. Reading,
// naming the sender, acknowledging and recording against redelivery allocate
// nothing per datagram; the queue a payload waits in grows by doubling. The
// frames come from a's bare socket, one at a time, and stay queued at b, so a
// round is two datagrams: the data frame b receives and the ack a receives.
func TestUDPReceiveAllocatesOnlyTheDatagramCopy(t *testing.T) {
	const n, size = 400, 1000
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
	sock, rb := a.(*ReliableEndpoint).out, b.(*ReliableEndpoint)
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = encodeFrame(make([]byte, size), frameData, uint64(i+1))
	}
	queued := func() int {
		rb.q.mu.Lock()
		defer rb.q.mu.Unlock()
		return len(rb.q.items)
	}
	deliver := func(i int) {
		if err := sock.Send(b.Addr(), frames[i]); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); queued() <= i; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("datagram %d not queued", i)
			}
		}
	}
	deliver(0) // the first names the sender and opens its dedup record
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 1; i < n; i++ {
		deliver(i)
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / (n - 1)
	perRound := float64(m1.TotalAlloc-m0.TotalAlloc) / (n - 1)
	t.Logf("%.2f allocations, %.0f bytes per round of a %d-byte data frame and its ack", allocs, perRound, size)
	if allocs > 2.2 || perRound > size*9/8+128 {
		t.Errorf("a round of a %d-byte data frame and its ack costs %.2f allocations of %.0f bytes, want 2, the datagrams' copies (at most %d bytes with the queue's share)",
			size, allocs, perRound, size*9/8+128)
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

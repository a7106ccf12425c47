package dist_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"testing"
	"time"

	"secureblox/internal/dist"
	"secureblox/internal/transport"
	"secureblox/internal/transport/transporttest"
	"secureblox/internal/wire"
)

// datagramOf is a data datagram from addrA carrying k distinct payloads of
// size bytes, the first eight bytes of each its serial number.
func datagramOf(serial, k, size int) transport.InMsg {
	payloads := make([][]byte, k)
	for i := range payloads {
		p := make([]byte, size)
		binary.BigEndian.PutUint64(p, uint64(serial*k+i))
		payloads[i] = p
	}
	return transport.InMsg{From: addrA, Data: wire.EncodeMessage(wire.Message{From: addrA, Payloads: payloads})}
}

// settled waits until the node has taken in want datagrams and committed them.
func settled(t *testing.T, n *dist.Node, want int64) {
	t.Helper()
	waitProcessed(t, n, want)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := n.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestInboundDatagramCopiesEachPayloadOnce: from the endpoint's hand-off to the
// commit — decode, admission into the run, the transaction that stores each
// payload as an export fact and imports it — a datagram of k payloads costs
// one copy of each payload, into the workspace's intern table, and little
// beyond it: the decoder's messages view the datagram, and the run's facts are
// windows of one reused value buffer.
func TestInboundDatagramCopiesEachPayloadOnce(t *testing.T) {
	const n, k, size = 200, 8, 4000
	ep := transporttest.NewScripted(addrB)
	b := nodeOverEndpoint(t, "b", addrB, map[string]string{"a": addrA}, "", ep)
	b.Start()
	t.Cleanup(b.Stop)
	msgs := make([]transport.InMsg, n+1) // built outside the measurement, as the transport builds them
	for i := range msgs {
		msgs[i] = datagramOf(i, k, size)
	}
	ep.Deliver(msgs[0])
	settled(t, b, 1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, m := range msgs[1:] {
		ep.Deliver(m)
		settled(t, b, int64(i+2))
	}
	runtime.ReadMemStats(&m1)
	if got := b.WS.Count("got"); got != (n+1)*k {
		t.Fatalf("%d payloads imported, want %d (violations: %v)", got, (n+1)*k, b.Violations())
	}
	perPayload := float64(m1.TotalAlloc-m0.TotalAlloc) / (n * k)
	t.Logf("%.0f bytes, %.2f allocations per %d-byte payload", perPayload, float64(m1.Mallocs-m0.Mallocs)/(n*k), size)
	if perPayload < size || perPayload > size*5/4 {
		t.Errorf("an inbound payload of %d bytes costs %.0f bytes from decode through commit, want one copy (%d to %d bytes)",
			size, perPayload, size, size*5/4)
	}
}

// TestDuplicatedDatagramCommitsOnceAndStaysIntact: one datagram buffer
// delivered twice — what a chaos dup does over memnet, which hands the
// receiver the sender's very buffer each time — imports its payloads once and
// is echoed once, whether the copies arrive in two hand-offs or in one merged
// run; and since every decoded payload views the buffer, nothing on the way
// from decode to commit may write to it: it is byte-for-byte what was sent.
func TestDuplicatedDatagramCommitsOnceAndStaysIntact(t *testing.T) {
	for _, merged := range []bool{false, true} {
		ep := transporttest.NewScripted(addrB)
		b := nodeOverEndpoint(t, "b", addrB, map[string]string{"a": addrA}, echoRule, ep)
		b.Start()
		t.Cleanup(b.Stop)
		m := datagramOf(1, 3, 64)
		sent := bytes.Clone(m.Data)
		if merged {
			ep.Deliver(m, m)
		} else {
			ep.Deliver(m)
			settled(t, b, 1)
			ep.Deliver(m)
		}
		settled(t, b, 2)
		if got := b.WS.Count("got"); got != 3 || len(b.Violations()) != 0 {
			t.Errorf("merged %v: %d payloads imported, want 3 (violations: %v)", merged, got, b.Violations())
		}
		if echoes := len(ep.Sent()); echoes != 1 {
			t.Errorf("merged %v: the node shipped %d datagrams for one datagram delivered twice, want 1", merged, echoes)
		}
		if !bytes.Equal(m.Data, sent) {
			t.Errorf("merged %v: the delivered datagram changed under the node", merged)
		}
	}
}

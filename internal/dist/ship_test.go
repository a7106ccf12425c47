package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/transport"
)

// discard is an endpoint whose sends succeed and vanish.
type discard struct{ addr string }

func (d discard) Addr() string                           { return d.addr }
func (d discard) Send(string, []byte) error              { return nil }
func (d discard) Receive() <-chan transport.InMsg        { return nil }
func (d discard) ReceiveBatch() <-chan []transport.InMsg { return nil }
func (d discard) Close() error                           { return nil }

// exportNode is a node over a discarding endpoint, and commit, which asserts k
// new exports spread over routes destinations and returns the transaction.
func exportNode(t *testing.T, routes, payload int) (*Node, func(k int) *engine.TxnResult) {
	t.Helper()
	ws := engine.NewWorkspace(nil)
	prog, err := datalog.Parse(ExportDecl)
	if err != nil {
		t.Fatal(err)
	}
	if err := ws.Install(prog); err != nil {
		t.Fatal(err)
	}
	n := NewNode("p", ws, discard{addr: "10.0.0.1:7000"})
	serial := 0
	return n, func(k int) *engine.TxnResult {
		facts := make([]engine.Fact, k)
		for i := range facts {
			serial++
			p := make([]byte, payload)
			p[0], p[1], p[2] = byte(serial), byte(serial>>8), byte(serial>>16)
			to := datalog.NodeV("10.0.0." + string(rune('2'+serial%routes)) + ":7000")
			facts[i] = engine.Fact{Pred: "export", Tuple: datalog.Tuple{to, datalog.NodeV(n.ep.Addr()), datalog.BytesV(p)}}
		}
		res, err := ws.Assert(facts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

// shipMeasured ships a transaction's exports reps times and returns the fewest
// allocations and bytes one ship took, and the datagrams it sent and their
// bytes. Like testing.AllocsPerRun it measures on one P, and the minimum keeps
// out what a goroutine other tests left behind allocates while ship runs.
func shipMeasured(n *Node, res *engine.TxnResult, reps int) (allocs, bytes uint64, datagrams, wireBytes int64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs, bytes = math.MaxUint64, math.MaxUint64
	for range reps {
		sent, sentBytes := n.MsgsSent(), n.BytesSent()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		n.ship(res.InsertedRows("export"))
		runtime.ReadMemStats(&m1)
		allocs, bytes = min(allocs, m1.Mallocs-m0.Mallocs), min(bytes, m1.TotalAlloc-m0.TotalAlloc)
		datagrams, wireBytes = n.MsgsSent()-sent, n.BytesSent()-sentBytes
	}
	return allocs, bytes, datagrams, wireBytes
}

// TestShippingAllocatesPerRouteAndChunk: shipping a transaction's k new exports
// over r routes allocates a datagram per chunk and nothing per export: k =
// 1 000 costs what k = 100 costs when both fit one chunk per route. In bytes,
// an export costs its share of a datagram and nothing the store would keep:
// the store already holds the row, so shipping keeps no second copy of it, and
// each chunk is encoded from its rows, with no list of payloads. A fresh
// node's first ship adds only what the node then makes once and keeps — ship's
// route and chunk lists, each destination's termination counters — a few
// allocations per chunk.
func TestShippingAllocatesPerRouteAndChunk(t *testing.T) {
	const routes, payload, reps = 3, 16, 3
	n, commit := exportNode(t, routes, payload)
	first, _, firstChunks, _ := shipMeasured(n, commit(1000), 1) // a fresh node, no warm-up
	t.Logf("a fresh node's first ship of 1000 exports: %d allocations for %d chunks", first, firstChunks)
	if limit := uint64(5 * firstChunks); firstChunks != routes || first > limit {
		t.Errorf("a fresh node's first ship of 1000 exports made %d allocations for %d chunks, want at most %d", first, firstChunks, limit)
	}
	small, _, chunks, _ := shipMeasured(n, commit(100), reps)
	large, bytes, largeChunks, _ := shipMeasured(n, commit(1000), reps)
	perExport := float64(bytes) / 1000
	t.Logf("%d allocations for 100 exports, %d for 1000, over %d routes; %.1f bytes per export", small, large, routes, perExport)
	if chunks != routes || largeChunks != routes {
		t.Fatalf("shipped %d and %d datagrams, want one per route (%d)", chunks, largeChunks, routes)
	}
	if limit := uint64(chunks); large > small || large > limit {
		t.Errorf("shipping 1000 exports over %d routes in %d chunks: %d allocations, 100 exports: %d; want the same, at most one per chunk (%d)",
			routes, chunks, large, small, limit)
	}
	// A datagram share is all an export may cost: the payload and its one-byte
	// length prefix, an eighth over for the allocator's size classes, and a
	// byte for its share of the header. A slot of a payload list (24 bytes)
	// would not fit under this ceiling.
	if ceiling := float64(payload+1)*9/8 + 1; perExport > ceiling {
		t.Errorf("shipping costs %.1f bytes per %d-byte export, want at most %.1f", perExport, payload, ceiling)
	}
}

// TestReshippingAllocatesOnlyDatagrams: every chunk is encoded from its rows
// into the datagram it is sent as, so shipping k exports allocates the
// datagrams — each up to an eighth over its length, the allocator's size
// classes — and a per-chunk constant, and no list of k payloads (24·k bytes)
// beside them: on a fresh node's first ship, where the constant also covers
// what the node then makes once and keeps (ship's route and chunk lists, each
// destination's termination counters), and again on the second. A batch-signing node ships the same way, its group, digests,
// sibling lists and digester within the constant.
func TestReshippingAllocatesOnlyDatagrams(t *testing.T) {
	const routes, payload, k, perChunk, firstPerChunk = 3, 16, 3000, 256, 768
	sig := make([]byte, 128)
	for _, batch := range []bool{false, true} {
		n, commit := exportNode(t, routes, payload)
		if batch {
			n.SignBatch = func([]byte) ([]byte, error) { return sig, nil }
		}
		// A started node: its loop, idle on an endpoint that delivers
		// nothing, is how ship runs in a cluster.
		n.Start()
		t.Cleanup(n.Stop)
		res := commit(k)
		_, bytes, datagrams, wireBytes := shipMeasured(n, res, 1)
		t.Logf("batch %v: a fresh node's first ship of %d exports: %d bytes allocated for %d bytes of %d datagrams", batch, k, bytes, wireBytes, datagrams)
		if limit := uint64(wireBytes*9/8 + firstPerChunk*datagrams); datagrams != routes || bytes > limit {
			t.Errorf("batch %v: a fresh node's first ship of %d exports allocated %d bytes for %d datagrams of %d bytes, want at most the datagrams, an eighth over, and %d per chunk (%d)",
				batch, k, bytes, datagrams, wireBytes, firstPerChunk, limit)
		}
		_, bytes, datagrams, wireBytes = shipMeasured(n, res, 3)
		if datagrams != routes {
			t.Fatalf("batch %v: reshipped %d datagrams, want one per route (%d)", batch, datagrams, routes)
		}
		t.Logf("batch %v: reshipping %d exports: %d bytes allocated for %d bytes of %d datagrams", batch, k, bytes, wireBytes, datagrams)
		if limit := uint64(wireBytes*9/8 + perChunk*datagrams); bytes > limit {
			t.Errorf("batch %v: reshipping %d exports allocated %d bytes, want at most the %d-byte datagrams, an eighth over, and %d per chunk (%d)",
				batch, k, bytes, wireBytes, perChunk, limit)
		}
	}
}

// recording is an endpoint that records every datagram sent, in order.
type recording struct {
	discard
	sent [][2]string // destination, datagram
}

func (r *recording) Send(to string, data []byte) error {
	r.sent = append(r.sent, [2]string{to, string(data)})
	return nil
}

// TestShippedDatagramsArePinned: one transaction's 3 000 exports over five
// destinations and two claimed sources, payloads of 16 to 915 bytes and one
// beyond any datagram, ship as the same datagrams, in the same order, byte
// for byte, as they did when ship built a payload list and the encoder copied
// it (the digests were recorded then): 31 datagrams, and under batch signing
// two signing groups.
func TestShippedDatagramsArePinned(t *testing.T) {
	for _, c := range []struct {
		batch  bool
		digest string
	}{
		{false, "d94f7628d9dc22fb054c7f255e8b2128fdcd4eb4fca522ee4e3097d0d6cb2ad4"},
		{true, "e0579492c2fc797ba41ccf945db2237e4d9f424379c1c80afa43ac7d72d1a2b5"},
	} {
		ws := engine.NewWorkspace(nil)
		prog, err := datalog.Parse(ExportDecl)
		if err != nil {
			t.Fatal(err)
		}
		if err := ws.Install(prog); err != nil {
			t.Fatal(err)
		}
		ep := &recording{discard: discard{addr: "10.0.0.1:7000"}}
		n := NewNode("p", ws, ep)
		if c.batch {
			n.SignBatch = func(root []byte) ([]byte, error) { return append([]byte("sig"), root...), nil }
		}
		n.curTrace, n.curHop = 77, 3
		facts := make([]engine.Fact, 3000)
		for i := range facts {
			size := 16 + (i*37)%900
			if i == 1234 {
				size = transport.MaxDatagram + 10000
			}
			p := make([]byte, size)
			for j := range p {
				p[j] = byte(i*7 + j)
			}
			from := datalog.NodeV("10.0.0.1:7000")
			if i%11 == 0 {
				from = datalog.NodeV("10.0.0.9:7000")
			}
			facts[i] = engine.Fact{Pred: "export", Tuple: datalog.Tuple{
				datalog.NodeV(fmt.Sprintf("10.0.0.%d:7000", 2+(i*13)%5)), from, datalog.BytesV(p)}}
		}
		res, err := ws.Assert(facts)
		if err != nil {
			t.Fatal(err)
		}
		n.ship(res.InsertedRows("export"))
		h := sha256.New()
		for _, s := range ep.sent {
			h.Write([]byte(s[0]))
			h.Write([]byte(s[1]))
		}
		if got := hex.EncodeToString(h.Sum(nil)); len(ep.sent) != 31 || got != c.digest {
			t.Errorf("batch %v: %d datagrams, digest %s; want 31, %s", c.batch, len(ep.sent), got, c.digest)
		}
	}
}

package dist

import (
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
// the payload list the chunks are windows of is the node's, reused.
func TestShippingAllocatesPerRouteAndChunk(t *testing.T) {
	const routes, payload, reps = 3, 16, 3
	n, commit := exportNode(t, routes, payload)
	shipMeasured(n, commit(1000), 1) // warm-up: ship's own buffers reach their working size
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
	// byte for its share of the header. A slot of a fresh payload list (24
	// bytes) would not fit under this ceiling.
	if ceiling := float64(payload+1)*9/8 + 1; perExport > ceiling {
		t.Errorf("shipping costs %.1f bytes per %d-byte export, want at most %.1f", perExport, payload, ceiling)
	}
}

// TestReshippingAllocatesOnlyDatagrams: an inline send encodes every chunk
// before ship returns, so the payload list is the node's and reused: shipping
// the same k exports a second time allocates the encoded datagrams — each up
// to an eighth over its length, the allocator's size classes — and a per-chunk
// constant, and no list of k payloads (24·k bytes) beside them.
func TestReshippingAllocatesOnlyDatagrams(t *testing.T) {
	const routes, payload, k, perChunk = 3, 16, 3000, 256
	n, commit := exportNode(t, routes, payload)
	res := commit(k)
	shipMeasured(n, res, 1) // the first ship grows the node's list to k payloads
	_, bytes, datagrams, wireBytes := shipMeasured(n, res, 3)
	if datagrams != routes {
		t.Fatalf("reshipped %d datagrams, want one per route (%d)", datagrams, routes)
	}
	t.Logf("reshipping %d exports: %d bytes allocated for %d bytes of %d datagrams", k, bytes, wireBytes, datagrams)
	if limit := uint64(wireBytes*9/8 + perChunk*datagrams); bytes > limit {
		t.Errorf("reshipping %d exports allocated %d bytes, want at most the %d-byte datagrams, an eighth over, and %d per chunk (%d)",
			k, bytes, wireBytes, perChunk, limit)
	}
}

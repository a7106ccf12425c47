package dist

import (
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

// TestShippingAllocatesPerRouteAndChunk: shipping a transaction's k new exports
// over r routes allocates per route and per chunk — the one payload list, a
// datagram per chunk — never per export: k = 1 000 costs what k = 100 costs
// when both fit one chunk per route. (What the sent-set stores per export is
// its own, and is held out of the measurement by reusing freed ids.)
func TestShippingAllocatesPerRouteAndChunk(t *testing.T) {
	const routes = 3
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
	commit := func(k int) *engine.TxnResult {
		facts := make([]engine.Fact, k)
		for i := range facts {
			serial++
			payload := []byte{byte(serial), byte(serial >> 8), byte(serial >> 16), 15: 0}
			to := datalog.NodeV("10.0.0." + string(rune('2'+serial%routes)) + ":7000")
			facts[i] = engine.Fact{Pred: "export", Tuple: datalog.Tuple{to, datalog.NodeV(n.ep.Addr()), datalog.BytesV(payload)}}
		}
		res, err := ws.Assert(facts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// ship returns the allocations and datagrams of shipping k new exports,
	// then unmarks them so the next round's marks reuse their ids.
	ship := func(k int) (allocs uint64, datagrams int64) {
		res := commit(k)
		sent := n.MsgsSent()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		n.ship(res.InsertedRows("export"))
		runtime.ReadMemStats(&m1)
		for _, tp := range res.Inserted("export") {
			n.sent.Delete(tp)
		}
		return m1.Mallocs - m0.Mallocs, n.MsgsSent() - sent
	}
	ship(1000) // warm-up: ship's own buffers reach their working size
	small, chunks := ship(100)
	large, largeChunks := ship(1000)
	t.Logf("%d allocations for 100 exports, %d for 1000, over %d routes", small, large, routes)
	if chunks != routes || largeChunks != routes {
		t.Fatalf("shipped %d and %d datagrams, want one per route (%d)", chunks, largeChunks, routes)
	}
	if large > small || large > 2*(routes+uint64(chunks))+2 {
		t.Errorf("shipping 1000 exports over %d routes in %d chunks: %d allocations, 100 exports: %d; want the same, at most %d",
			routes, chunks, large, small, 2*(routes+chunks)+2)
	}
}

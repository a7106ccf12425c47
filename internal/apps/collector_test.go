package apps

import (
	"net/http"
	"testing"

	"secureblox/internal/core"
	"secureblox/internal/obs"
)

// TestTraceCollectorHTTPRoundTrip is the end-to-end proof of the `sbx
// trace` fetch path: four in-process nodes run the multi-hop chain
// derivation from TestWaveTraceSpansMultiHopDerivation, each node exposes
// its spans over its own debug HTTP server, and the collector primitives
// (FetchSpans per node, merge, BuildWave) reconstruct the 3-hop wave from
// HTTP responses alone — with the tree's span count matching the sum of
// the per-node fetches, the invariant `sbx trace` reports.
//
// In-process nodes share one span ring, so each node's server serves the
// ring filtered to its own address (the ?node= filter) — the same disjoint
// per-node view separate OS processes have naturally.
func TestTraceCollectorHTTPRoundTrip(t *testing.T) {
	c, err := core.NewCluster(core.ClusterConfig{
		N:      4,
		Policy: core.PolicyConfig{Delegation: core.DelegateNone},
		Query:  PathVectorQuery,
		Seed:   11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	c.Start()

	for _, i := range []int{0, 2, 3} {
		c.AssertAt(i, chainLinks(c.Addrs, i))
	}
	c.WaitFixpoint()

	obs.ResetSpans()
	c.AssertAt(1, chainLinks(c.Addrs, 1))
	c.WaitFixpoint()

	// One debug server per node, each serving only that node's spans.
	servers := make([]string, len(c.Addrs))
	for i, nodeAddr := range c.Addrs {
		mux := http.NewServeMux()
		mux.Handle("/debug/spans", nodeScopedSpans(nodeAddr))
		addr, stop, err := obs.ServeDebug("127.0.0.1:0", mux)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		servers[i] = addr
	}

	client := &http.Client{}

	// Find the wave's trace ID the way the live test does: the hop-0
	// fixpoint span of node 1's late assertion — but through HTTP, from
	// node 1's server.
	node1Spans, err := obs.FetchSpans(client, servers[1], 0)
	if err != nil {
		t.Fatal(err)
	}
	var trace uint64
	for _, s := range node1Spans {
		if s.Stage == obs.StageFixpoint && s.Hop == 0 && s.Peer == "" {
			trace = s.Trace
			break
		}
	}
	if trace == 0 {
		t.Fatalf("no hop-0 fixpoint span among %d spans fetched from node 1", len(node1Spans))
	}

	// The collector's fetch path: per-node trace-filtered fetches, merged.
	var merged []obs.Span
	perNode := 0
	for i, srv := range servers {
		spans, err := obs.FetchSpans(client, srv, trace)
		if err != nil {
			t.Fatalf("fetch from node %d: %v", i, err)
		}
		for _, s := range spans {
			if s.Node != c.Addrs[i] {
				t.Fatalf("node %d served a span recorded at %s", i, s.Node)
			}
			if s.Trace != trace {
				t.Fatalf("node %d served trace %d, want %d", i, s.Trace, trace)
			}
		}
		perNode += len(spans)
		merged = append(merged, spans...)
	}

	w := obs.BuildWave(trace, merged)
	if w == nil {
		t.Fatal("BuildWave found no spans in the merged fetches")
	}
	if w.Node != c.Addrs[1] || w.Hop != 0 {
		t.Fatalf("wave root = %s hop %d, want %s hop 0", w.Node, w.Hop, c.Addrs[1])
	}
	if d := w.Depth(); d < 3 {
		t.Errorf("wave depth = %d, want >= 3 (the 3-hop chain)", d)
	}
	// Node 1 advertises to both neighbors, so the wave reaches the whole
	// chain: node 0 at hop 1 (a dead end) and nodes 2, 3 down the chain.
	if got := len(w.Participants()); got != 4 {
		t.Errorf("wave spans %d nodes, want 4: %v", got, w.Participants())
	}
	// The invariant sbx trace prints: the rendered tree accounts for every
	// span every node served.
	if w.SpanCount() != perNode {
		t.Errorf("tree holds %d spans, per-node fetches sum to %d", w.SpanCount(), perNode)
	}
}

// nodeScopedSpans serves the shared span ring filtered to one node, by
// forcing the ?node= query before delegating to the standard handler.
func nodeScopedSpans(nodeAddr string) http.Handler {
	inner := obs.SpansHandler()
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query()
		q.Set("node", nodeAddr)
		req.URL.RawQuery = q.Encode()
		inner.ServeHTTP(w, req)
	})
}

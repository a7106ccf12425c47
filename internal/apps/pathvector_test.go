package apps

import (
	"context"
	"testing"
	"time"

	"secureblox/internal/cluster"
	"secureblox/internal/core"
	"secureblox/internal/graph"
	"secureblox/internal/transport"
)

// runRow takes the named row of Workloads to its fixpoint on n nodes over
// net (nil: a fresh memnet) through the one runner, fails the test on an
// error or a violation, and stops the cluster when the test ends.
func runRow(t *testing.T, name string, wc cluster.WorkloadConfig, n int, p core.PolicyConfig, net transport.Network) *Outcome {
	t.Helper()
	w, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	o, err := w.Run(ctx, wc, n, p, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Cluster.Stop)
	if v := o.Cluster.Violations(); len(v) != 0 {
		t.Fatalf("%d violations, first: %v", o.Cluster.Rejections(), v[0])
	}
	return o
}

// smoke is the input `sbx run` feeds every row from seed: a tenth of the
// paper's hash-join tables (§8.2), a path-vector graph of degree 3.
func smoke(seed int64) cluster.WorkloadConfig {
	return cluster.WorkloadConfig{SizeA: 90, SizeB: 80, JoinValues: 12, Seed: seed}
}

// pv is a path-vector input: the graph of seed at average degree d.
func pv(seed int64, d float64) cluster.WorkloadConfig {
	return cluster.WorkloadConfig{Seed: seed, Degree: d}
}

func TestGraphGenerator(t *testing.T) {
	for _, n := range []int{6, 12, 36} {
		g := graph.RandomConnected(n, 3, int64(n))
		if !g.Connected() {
			t.Errorf("n=%d: graph not connected", n)
		}
		if d := g.AvgDegree(); d < 2.4 || d > 3.6 {
			t.Errorf("n=%d: average degree %.2f not near 3", n, d)
		}
	}
	// determinism
	a := graph.RandomConnected(10, 3, 42)
	b := graph.RandomConnected(10, 3, 42)
	if len(a.Edges) != len(b.Edges) {
		t.Error("same seed must give same graph")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Error("same seed must give same edges")
		}
	}
}

func TestPathVectorComputesShortestPaths(t *testing.T) {
	if o := runRow(t, "pathvector", pv(3, 3), 6, core.PolicyConfig{}, nil); o.Wrong != nil {
		t.Fatal(o.Wrong)
	}
}

func TestPathVectorOverUDP(t *testing.T) {
	// The Figure 4 scenario over real loopback sockets: same protocol,
	// same ground-truth shortest paths, termination detected purely via
	// wire-level control messages across the reliable UDP layer.
	o := runRow(t, "pathvector", pv(3, 3), 5, core.PolicyConfig{}, transport.NewUDPNetwork())
	if o.Wrong != nil {
		t.Fatal(o.Wrong)
	}
	if o.Cluster.MeanNodeTrafficKB() <= 0 {
		t.Error("no traffic measured over UDP")
	}
}

func TestHashJoinOverUDP(t *testing.T) {
	wc := cluster.WorkloadConfig{SizeA: 60, SizeB: 50, JoinValues: 12, Seed: 9}
	if o := runRow(t, "hashjoin", wc, 3, core.PolicyConfig{}, transport.NewUDPNetwork()); o.Wrong != nil {
		t.Fatalf("join over UDP: %s: %v", o.Answer, o.Wrong)
	}
}

func TestNoFullScanFallbacksInProtocolRuleSets(t *testing.T) {
	// Every join step in the path-vector and hash-join rule sets must be
	// answered by an index registered at compile time: after a full run, no
	// node's evaluator may have fallen back to scanning a relation whose
	// step had bound columns. The plans themselves, under every policy, are
	// in the engine's testdata/shipped_plans.golden.
	pvc := runRow(t, "pathvector", pv(3, 3), 6, core.PolicyConfig{}, nil).Cluster
	for i, n := range pvc.Nodes {
		s := n.WS.Stats()
		if s.FullScanFallbacks != 0 {
			t.Errorf("pathvector node %d: %d full-scan fallbacks (%s)", i, s.FullScanFallbacks, s)
		}
		if s.IndexProbes == 0 {
			t.Errorf("pathvector node %d: evaluator never probed an index", i)
		}
	}
	hj := runRow(t, "hashjoin", cluster.WorkloadConfig{SizeA: 60, SizeB: 50, JoinValues: 12, Seed: 9}, 3, core.PolicyConfig{}, nil).Cluster
	for i, n := range hj.Nodes {
		s := n.WS.Stats()
		if s.FullScanFallbacks != 0 {
			t.Errorf("hashjoin node %d: %d full-scan fallbacks (%s)", i, s.FullScanFallbacks, s)
		}
	}
}

func TestPathVectorUnderRSA(t *testing.T) {
	o := runRow(t, "pathvector", pv(4, 3), 6, core.PolicyConfig{Auth: core.AuthRSA}, nil)
	if o.Wrong != nil {
		t.Fatal(o.Wrong)
	}
	if o.Cluster.MeanNodeTrafficKB() <= 0 {
		t.Error("no traffic measured")
	}
}

func TestPathVectorRSAAESMatchesNoAuthRoutes(t *testing.T) {
	// Security customization must not change protocol results (the
	// paper's central claim: policy is decoupled from specification).
	get := func(p core.PolicyConfig) map[string]int64 {
		c := runRow(t, "pathvector", pv(5, 3), 6, p, nil).Cluster
		out := map[string]int64{}
		for i := range c.Nodes {
			for _, tp := range c.Query(i, "bestcost") {
				out[tp[0].Str+">"+tp[1].Str] = tp[2].Int
			}
		}
		return out
	}
	plain := get(core.PolicyConfig{})
	secure := get(core.PolicyConfig{Auth: core.AuthRSA, Encrypt: true})
	if len(plain) == 0 || len(plain) != len(secure) {
		t.Fatalf("route table sizes differ: %d vs %d", len(plain), len(secure))
	}
	for k, v := range plain {
		if secure[k] != v {
			t.Errorf("route %s: NoAuth cost %d, RSA-AES cost %d", k, v, secure[k])
		}
	}
}

func TestPathVectorPathCompositionPropagates(t *testing.T) {
	// The protocol ships full path composition so nodes can policy-check
	// paths; verify some multi-hop pathlink chain exists.
	c := runRow(t, "pathvector", pv(6, 2.5), 6, core.PolicyConfig{}, nil).Cluster
	multi := false
	for i := range c.Nodes {
		byPath := map[string]int{}
		for _, tp := range c.Query(i, "pathlink") {
			byPath[tp[0].String()]++
		}
		for _, cnt := range byPath {
			if cnt >= 2 {
				multi = true
			}
		}
	}
	if !multi {
		t.Error("no multi-hop path composition found anywhere")
	}
}

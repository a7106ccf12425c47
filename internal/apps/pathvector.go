// Package apps contains the paper's three use cases (§7) expressed as
// SecureBlox programs with harnesses that run them on a cluster and collect
// the evaluation's metrics: the authenticated path-vector routing protocol,
// the secure parallel hash join, and the anonymous join over an onion
// circuit.
package apps

import (
	"fmt"
	"time"

	"secureblox/internal/core"
	"secureblox/internal/datalog"
	"secureblox/internal/engine"
	"secureblox/internal/graph"
)

// PathVectorQuery is the paper's §7.1 path-vector protocol: a distributed
// all-pairs-shortest-path computation that propagates full path
// compositions (pathvar entities with their pathlink chains) and advertises
// only best-cost paths to neighbours that do not already appear in the
// path. Imports are first-writer-wins, guarded by negation, so a path
// entity's link chain stays a function of its hop.
const PathVectorQuery = `
	pathvar(P) -> .
	link(N1, N2) -> node(N1), node(N2).
	path(P, Src, Dst, C) -> pathvar(P), node(Src), node(Dst), int(C).
	pathlink(P, H1, H2) -> pathvar(P), node(H1), node(H2).
	bestcost[Src, Dst]=C -> node(Src), node(Dst), int(C).
	exportable('path).
	exportable('pathlink).

	// Base case: every link is a one-hop path.
	pathvar(P), path(P, Me, N, 1), pathlink(P, Me, N)
		<- link(Me, N), principal_node[self[]]=Me.

	// Best path cost per destination (min aggregate).
	bestcost[Me, N]=C <- agg<< C=min(Cx) >> path(P, Me, N, Cx),
		principal_node[self[]]=Me.

	// Advertise best paths to neighbours not already on the path,
	// extending the path entity by one hop.
	says['path](self[], U, P, N, N2, C + 1),
	says['pathlink](self[], U, P, N, Me)
		<- link(Me, N), path(P, Me, N2, C), bestcost[Me, N2]=C,
		   principal_node[U]=N, principal_node[self[]]=Me,
		   N != N2, !pathlink(P, N, _).

	// Ship the advertised path's full composition.
	says['pathlink](self[], U, P, H1, H2)
		<- link(Me, N), path(P, Me, N2, C), bestcost[Me, N2]=C,
		   pathlink(P, H1, H2),
		   principal_node[U]=N, principal_node[self[]]=Me,
		   N != N2, !pathlink(P, N, _).

	// Import (first-writer-wins keeps pathlink functional per hop).
	pathvar(P), path(P, S2, D, C)
		<- says['path](U, self[], P, S2, D, C), !path(P, S2, D, _).
	pathvar(P), pathlink(P, H1, H2)
		<- says['pathlink](U, self[], P, H1, H2), !pathlink(P, H1, _).
`

// PathVectorConfig parameterizes one path-vector experiment.
type PathVectorConfig struct {
	N         int
	AvgDegree float64
	Policy    core.PolicyConfig
	Seed      int64
	// Transport selects the cluster substrate: "" or "mem" for the
	// in-process network, "udp" for real loopback sockets (see
	// core.NewNetwork). The scenario and its results are identical.
	Transport string
}

// PathVectorResult carries the metrics of one run (paper §8.1).
type PathVectorResult struct {
	FixpointLatency time.Duration
	PerNodeKB       float64
	MeanTxn         time.Duration
	Convergence     []time.Duration
	Violations      int
	Graph           *graph.Graph
	Cluster         *core.Cluster
}

// PathVectorLinkFacts builds node i's slice of the initial link
// distribution: its adjacency in g, expressed over the nodes' real
// transport addresses so the scenario is transport-agnostic. Shared by
// the in-process driver and the table row sbxnode reads, whose separate OS
// processes derive the same graph from the workload seed.
func PathVectorLinkFacts(g *graph.Graph, addrs []string, i int) []engine.Fact {
	var facts []engine.Fact
	me := datalog.NodeV(addrs[i])
	for _, nb := range g.Neighbors(i) {
		facts = append(facts, engine.Fact{
			Pred:  "link",
			Tuple: datalog.Tuple{me, datalog.NodeV(addrs[nb])},
		})
	}
	return facts
}

// RunPathVector executes the protocol on a random connected graph to the
// distributed fixpoint. The caller must Stop() the returned result's
// Cluster (kept open so tests can inspect node state).
func RunPathVector(cfg PathVectorConfig) (*PathVectorResult, error) {
	g := graph.RandomConnected(cfg.N, cfg.AvgDegree, cfg.Seed)
	net, err := core.NewNetwork(cfg.Transport)
	if err != nil {
		return nil, err
	}
	c, err := core.NewCluster(pathVectorProgram.ClusterConfig(cfg.N, cfg.Policy, cfg.Seed, net))
	if err != nil {
		return nil, err
	}
	c.Start()
	// Distribute initial links to all nodes simultaneously (§8.1).
	for i := 0; i < cfg.N; i++ {
		if facts := PathVectorLinkFacts(g, c.Addrs, i); len(facts) > 0 {
			c.AssertAt(i, facts)
		}
	}
	latency := c.WaitFixpoint()
	return &PathVectorResult{
		FixpointLatency: latency,
		PerNodeKB:       c.MeanNodeTrafficKB(),
		MeanTxn:         c.MeanTxnDuration(),
		Convergence:     c.ConvergenceTimes(),
		Violations:      int(c.Rejections()),
		Graph:           g,
		Cluster:         c,
	}, nil
}

// ValidateShortestPaths checks each node's bestcost table against BFS
// ground truth, returning the first discrepancy.
func (r *PathVectorResult) ValidateShortestPaths() error {
	for i := 0; i < r.Graph.N; i++ {
		truth := r.Graph.ShortestPaths(i)
		me := datalog.NodeV(r.Cluster.Addrs[i])
		for j, want := range truth {
			if j == i || want < 0 {
				continue
			}
			got, ok := r.Cluster.Nodes[i].WS.LookupFn("bestcost", me, datalog.NodeV(r.Cluster.Addrs[j]))
			if !ok {
				return fmt.Errorf("node %d: no bestcost to node %d (want %d)", i, j, want)
			}
			if got.Int != int64(want) {
				return fmt.Errorf("node %d: bestcost to node %d = %d, want %d", i, j, got.Int, want)
			}
		}
	}
	return nil
}

// Package apps contains the paper's three use cases (§7) expressed as
// SecureBlox programs — the authenticated path-vector routing protocol, the
// secure parallel hash join, and the anonymous join over an onion circuit —
// as the rows of one table, Workloads, each with its input, its readout and
// its oracle, and the one runner that takes a row to the fixpoint in-process.
package apps

import (
	"fmt"
	"strconv"
	"strings"

	"secureblox/internal/cluster"
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

// PathVectorLinkFacts builds node i's slice of the initial link
// distribution: its adjacency in g, expressed over the nodes' real
// transport addresses so the scenario is transport-agnostic. The table's
// row feeds it to every node, whose separate OS processes derive the same
// graph from the workload seed.
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

// pathVectorGraph is the random connected graph a config's links come
// from: n nodes of average degree w.Degree (default 3), drawn from w.Seed.
func pathVectorGraph(w cluster.WorkloadConfig, n int) *graph.Graph {
	degree := w.Degree
	if degree <= 0 {
		degree = 3
	}
	return graph.RandomConnected(n, degree, w.Seed)
}

// pathVectorCheck is the strict oracle: every node's bestcost to every node
// it can reach is the BFS distance in the graph its links came from. It
// names the first discrepancy.
func pathVectorCheck(w cluster.WorkloadConfig, mem *cluster.Membership, lines []string) (string, error) {
	n := len(mem.Members)
	answer := fmt.Sprintf("every bestcost of %d nodes against BFS", n)
	cost := map[string]string{} // "bestcost\tsrc\tdst\t" → cost
	for _, l := range lines {
		i := strings.LastIndexByte(l, '\t')
		cost[l[:i+1]] = l[i+1:]
	}
	g, prin := pathVectorGraph(w, n), mem.Principals()
	for i := range n {
		for j, want := range g.ShortestPaths(i) {
			if j == i || want < 0 {
				continue
			}
			got, ok := cost[fmt.Sprintf("bestcost\t%s\t%s\t", prin[i], prin[j])]
			if !ok {
				return answer, fmt.Errorf("node %d: no bestcost to node %d (want %d)", i, j, want)
			}
			if got != strconv.Itoa(want) {
				return answer, fmt.Errorf("node %d: bestcost to node %d = %s, want %d", i, j, got, want)
			}
		}
	}
	return answer, nil
}

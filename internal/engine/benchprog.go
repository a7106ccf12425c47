package engine

import (
	"math/rand"

	"secureblox/internal/datalog"
)

// This file defines the deterministic single-node workloads shared by the
// root BenchmarkEngineFixpoint targets and the bench/ module's engine
// probes, so both measure the exact same programs and inputs.

// BenchClosureSrc is the two-rule transitive closure program. Its
// recursive rule is the canonical semi-naïve delta workload: every round
// joins the previous round's new reachable tuples against link.
const BenchClosureSrc = `
	reachable(X,Y) <- link(X,Y).
	reachable(X,Y) <- link(X,Z), reachable(Z,Y).
`

// BenchClosureInput generates the link facts of a random digraph with the
// given node and edge counts and returns the exact size of its transitive
// closure (paths of length >= 1), computed by a BFS from every source.
// Unlike a chain, a dense random digraph produces rounds whose deltas hold
// thousands of tuples, while the BFS count keeps the benchmark
// self-validating.
func BenchClosureInput(nodes, edges int, seed int64) ([]Fact, int) {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int, nodes)
	seen := make(map[[2]int]bool, edges)
	facts := make([]Fact, 0, edges)
	for len(facts) < edges {
		e := [2]int{rng.Intn(nodes), rng.Intn(nodes)}
		if seen[e] {
			continue
		}
		seen[e] = true
		adj[e[0]] = append(adj[e[0]], e[1])
		facts = append(facts, Fact{Pred: "link", Tuple: datalog.Tuple{
			datalog.Int64(int64(e[0])), datalog.Int64(int64(e[1]))}})
	}

	closure := 0
	visited := make([]int, nodes) // visited[v] == src+1: reached from src
	queue := make([]int, 0, nodes)
	for src := 0; src < nodes; src++ {
		queue = queue[:0]
		// Seed the frontier with src's successors, not src itself:
		// reachable(src, src) holds only via a cycle through an edge.
		for _, t := range adj[src] {
			if visited[t] != src+1 {
				visited[t] = src + 1
				queue = append(queue, t)
			}
		}
		for i := 0; i < len(queue); i++ {
			closure++
			for _, t := range adj[queue[i]] {
				if visited[t] != src+1 {
					visited[t] = src + 1
					queue = append(queue, t)
				}
			}
		}
	}
	return facts, closure
}

// BenchMultijoinSrc is a three-way join whose middle atom binds a
// non-first column — the shape that historically forced a full relation
// scan and now exercises the secondary-index probe path.
const BenchMultijoinSrc = `q(X,W) <- a(X,Y), b(Z,Y), c(Z,W).`

// BenchMultijoinInput generates perRel random tuples for each of a, b and
// c with both columns drawn uniformly from [0, dom).
func BenchMultijoinInput(perRel, dom int, seed int64) []Fact {
	rng := rand.New(rand.NewSource(seed))
	facts := make([]Fact, 0, 3*perRel)
	for _, pred := range []string{"a", "b", "c"} {
		for i := 0; i < perRel; i++ {
			facts = append(facts, Fact{Pred: pred, Tuple: datalog.Tuple{
				datalog.Int64(int64(rng.Intn(dom))), datalog.Int64(int64(rng.Intn(dom)))}})
		}
	}
	return facts
}

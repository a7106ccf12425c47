// Package graph generates the random network topologies of the paper's
// evaluation (§8.1: "ten random graphs with an average node degree of
// three") and computes ground-truth shortest paths for validation.
package graph

import (
	"math/rand"
)

// Graph is an undirected graph over nodes 0..N-1.
type Graph struct {
	N     int
	Edges [][2]int // each undirected edge once, a < b
	adj   [][]int
}

// RandomConnected generates a connected random graph with the given average
// degree (total edges = N*avgDegree/2, at least a spanning tree) from a
// deterministic seed.
func RandomConnected(n int, avgDegree float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := &Graph{N: n}
	have := make(map[[2]int]bool)
	addEdge := func(a, b int) bool {
		if a == b {
			return false
		}
		if a > b {
			a, b = b, a
		}
		k := [2]int{a, b}
		if have[k] {
			return false
		}
		have[k] = true
		g.Edges = append(g.Edges, k)
		return true
	}
	// Random spanning tree: attach each node to a random earlier one.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		addEdge(perm[i], perm[rng.Intn(i)])
	}
	target := int(float64(n) * avgDegree / 2)
	if max := n * (n - 1) / 2; target > max {
		target = max // complete graph is the densest possible
	}
	for len(g.Edges) < target {
		addEdge(rng.Intn(n), rng.Intn(n))
	}
	g.buildAdj()
	return g
}

func (g *Graph) buildAdj() {
	g.adj = make([][]int, g.N)
	for _, e := range g.Edges {
		g.adj[e[0]] = append(g.adj[e[0]], e[1])
		g.adj[e[1]] = append(g.adj[e[1]], e[0])
	}
}

// Neighbors returns the adjacency list of node v.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// AvgDegree returns the realized average degree.
func (g *Graph) AvgDegree() float64 { return 2 * float64(len(g.Edges)) / float64(g.N) }

// ShortestPaths returns hop counts from src via BFS (-1 = unreachable).
func (g *Graph) ShortestPaths(src int) []int {
	dist := make([]int, g.N)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.adj[v] {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Connected reports whether the graph is connected.
func (g *Graph) Connected() bool {
	for _, d := range g.ShortestPaths(0) {
		if d < 0 {
			return false
		}
	}
	return true
}

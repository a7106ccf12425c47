package graph

import (
	"testing"
	"testing/quick"
)

func TestRandomConnectedInvariantsQuick(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 3
		g := RandomConnected(n, 3, seed)
		if !g.Connected() {
			return false
		}
		// no self loops, no duplicate edges
		seen := map[[2]int]bool{}
		for _, e := range g.Edges {
			if e[0] == e[1] || e[0] > e[1] || seen[e] {
				return false
			}
			seen[e] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestShortestPathsTriangle(t *testing.T) {
	g := &Graph{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}}}
	g.buildAdj()
	d := g.ShortestPaths(0)
	want := []int{0, 1, 2, 3}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestDisconnected(t *testing.T) {
	g := &Graph{N: 3, Edges: [][2]int{{0, 1}}}
	g.buildAdj()
	if g.Connected() {
		t.Error("graph with isolated node reported connected")
	}
	if g.ShortestPaths(0)[2] != -1 {
		t.Error("unreachable node should be -1")
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	g := RandomConnected(12, 3, 5)
	adj := map[int]map[int]bool{}
	for v := 0; v < g.N; v++ {
		adj[v] = map[int]bool{}
		for _, w := range g.Neighbors(v) {
			adj[v][w] = true
		}
	}
	for v := 0; v < g.N; v++ {
		for w := range adj[v] {
			if !adj[w][v] {
				t.Errorf("edge %d-%d not symmetric", v, w)
			}
		}
	}
}

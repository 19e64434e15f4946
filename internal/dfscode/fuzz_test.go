package dfscode_test

import (
	"math/rand"
	"testing"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
)

// FuzzCanonicalInvariance decodes a byte string into a random connected
// labeled graph and checks the canonical-code contract: invariance under
// node permutation and round-trip isomorphism.
func FuzzCanonicalInvariance(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, int64(1))
	f.Add([]byte{0}, int64(2))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 || len(data) > 10 {
			return
		}
		g := graph.New(len(data), len(data))
		for _, b := range data {
			g.AddNode(graph.Label(b % 3))
		}
		r := rand.New(rand.NewSource(seed))
		for i := 1; i < g.NumNodes(); i++ {
			g.MustAddEdge(r.Intn(i), i, graph.Label(int(data[i])%2))
		}
		// A couple of extra edges for cycles.
		for e := 0; e < len(data)/3; e++ {
			u, v := r.Intn(g.NumNodes()), r.Intn(g.NumNodes())
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, 0)
			}
		}
		canon := dfscode.Canonical(g)
		perm := r.Perm(g.NumNodes())
		if got := dfscode.Canonical(g.Relabel(perm)); got != canon {
			t.Fatalf("canonical changed under relabel: %q vs %q", canon, got)
		}
		if g.NumEdges() > 0 {
			back := dfscode.MinimumCode(g).Graph()
			if !isomorphic(g, back) {
				t.Fatal("min-code graph not isomorphic to original")
			}
		}
	})
}

// FuzzMinCodeEdgeOrder checks that the minimum DFS code is invariant
// under the order edges were inserted: the same graph rebuilt with its
// edge list shuffled must produce an identical canonical code. Result
// caching keys on this string, so any edge-order sensitivity would make
// cache hits depend on database file layout.
func FuzzMinCodeEdgeOrder(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5}, int64(1))
	f.Add([]byte{0, 1}, int64(2))
	f.Add([]byte{7, 7, 7, 7, 7, 7}, int64(3))
	f.Add([]byte{2, 4, 6, 8, 1, 3, 5, 7, 9}, int64(4))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) == 0 || len(data) > 10 {
			return
		}
		g := graph.New(len(data), len(data))
		for _, b := range data {
			g.AddNode(graph.Label(b % 3))
		}
		r := rand.New(rand.NewSource(seed))
		for i := 1; i < g.NumNodes(); i++ {
			g.MustAddEdge(r.Intn(i), i, graph.Label(int(data[i])%2))
		}
		for e := 0; e < len(data)/3; e++ {
			u, v := r.Intn(g.NumNodes()), r.Intn(g.NumNodes())
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, 0)
			}
		}
		canon := dfscode.Canonical(g)

		// Rebuild the identical graph with the edge list shuffled.
		edges := g.Edges()
		perm := r.Perm(len(edges))
		h := graph.New(g.NumNodes(), len(edges))
		for v := 0; v < g.NumNodes(); v++ {
			h.AddNode(g.NodeLabel(v))
		}
		for _, i := range perm {
			h.MustAddEdge(edges[i].From, edges[i].To, edges[i].Label)
		}
		if got := dfscode.Canonical(h); got != canon {
			t.Fatalf("canonical code depends on edge insertion order: %q vs %q", got, canon)
		}
	})
}

package isomorph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphsig/internal/graph"
)

// build constructs a graph from labels and (from,to,label) triples.
func build(labels []graph.Label, edges [][3]int) *graph.Graph {
	g := graph.New(len(labels), len(edges))
	for _, l := range labels {
		g.AddNode(l)
	}
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1], graph.Label(e[2]))
	}
	return g
}

func triangle(l0, l1, l2 graph.Label) *graph.Graph {
	return build([]graph.Label{l0, l1, l2}, [][3]int{{0, 1, 0}, {1, 2, 0}, {0, 2, 0}})
}

func TestSubgraphIsomorphicBasic(t *testing.T) {
	target := triangle(1, 1, 2)
	tests := []struct {
		name    string
		pattern *graph.Graph
		want    bool
	}{
		{"single matching node", build([]graph.Label{2}, nil), true},
		{"single missing node", build([]graph.Label{9}, nil), false},
		{"edge 1-2", build([]graph.Label{1, 2}, [][3]int{{0, 1, 0}}), true},
		{"edge wrong edge label", build([]graph.Label{1, 2}, [][3]int{{0, 1, 5}}), false},
		{"edge 1-1", build([]graph.Label{1, 1}, [][3]int{{0, 1, 0}}), true},
		{"whole triangle", triangle(1, 2, 1), true},
		{"path of 3 through triangle", build([]graph.Label{1, 1, 2}, [][3]int{{0, 1, 0}, {1, 2, 0}}), true},
		{"too many nodes", build([]graph.Label{1, 1, 2, 2}, nil), false},
		{"empty pattern", graph.New(0, 0), true},
	}
	for _, tc := range tests {
		if got := SubgraphIsomorphic(tc.pattern, target); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSubgraphNotInduced(t *testing.T) {
	// Pattern path a-b-c must match inside a triangle (monomorphism onto
	// a non-induced subgraph).
	pattern := build([]graph.Label{1, 1, 1}, [][3]int{{0, 1, 0}, {1, 2, 0}})
	target := triangle(1, 1, 1)
	if !SubgraphIsomorphic(pattern, target) {
		t.Fatal("path should embed into triangle (non-induced)")
	}
}

func TestCountEmbeddings(t *testing.T) {
	// A path 1-1 in a triangle of all-1 nodes: each of the 3 edges in 2
	// directions = 6 embeddings.
	pattern := build([]graph.Label{1, 1}, [][3]int{{0, 1, 0}})
	target := triangle(1, 1, 1)
	if got := CountEmbeddings(pattern, target, 0); got != 6 {
		t.Errorf("embeddings = %d; want 6", got)
	}
	if got := CountEmbeddings(pattern, target, 2); got != 2 {
		t.Errorf("limited embeddings = %d; want 2", got)
	}
}

func TestFindEmbeddingIsValid(t *testing.T) {
	pattern := build([]graph.Label{1, 2, 1}, [][3]int{{0, 1, 3}, {1, 2, 4}})
	target := build([]graph.Label{9, 1, 2, 1}, [][3]int{{1, 2, 3}, {2, 3, 4}, {0, 1, 7}})
	m := FindEmbedding(pattern, target)
	if m == nil {
		t.Fatal("no embedding found")
	}
	for pv := 0; pv < pattern.NumNodes(); pv++ {
		if pattern.NodeLabel(pv) != target.NodeLabel(m[pv]) {
			t.Fatalf("node label mismatch at %d", pv)
		}
	}
	for _, e := range pattern.Edges() {
		if target.EdgeLabel(m[e.From], m[e.To]) != e.Label {
			t.Fatalf("edge (%d,%d) not preserved", e.From, e.To)
		}
	}
}

func TestFindEmbeddingAbsent(t *testing.T) {
	pattern := build([]graph.Label{3, 3}, [][3]int{{0, 1, 0}})
	target := triangle(1, 1, 2)
	if m := FindEmbedding(pattern, target); m != nil {
		t.Fatalf("embedding = %v; want nil", m)
	}
}

// isomorphic is whole-graph isomorphism for tests: with equal node and
// edge counts, an embedding of a in b maps nodes and edges bijectively.
func isomorphic(a, b *graph.Graph) bool {
	return a.NumNodes() == b.NumNodes() && a.NumEdges() == b.NumEdges() && SubgraphIsomorphic(a, b)
}

func TestIsomorphicBasic(t *testing.T) {
	a := triangle(1, 2, 3)
	b := triangle(3, 1, 2)
	if !isomorphic(a, b) {
		t.Error("relabeled triangles should be isomorphic")
	}
	c := build([]graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 0}})
	if isomorphic(a, c) {
		t.Error("triangle vs path should differ")
	}
	// Same label multiset, different structure.
	d := build([]graph.Label{1, 1, 1, 1}, [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}})
	e := build([]graph.Label{1, 1, 1, 1}, [][3]int{{0, 1, 0}, {0, 2, 0}, {0, 3, 0}})
	if isomorphic(d, e) {
		t.Error("path4 vs star4 should differ")
	}
}

func TestDisconnectedPattern(t *testing.T) {
	// Two isolated nodes with labels 1 and 2 inside a triangle(1,1,2).
	pattern := build([]graph.Label{1, 2}, nil)
	target := triangle(1, 1, 2)
	if !SubgraphIsomorphic(pattern, target) {
		t.Error("disconnected pattern should match")
	}
	// Needs two distinct nodes labeled 2; target has one.
	pattern2 := build([]graph.Label{2, 2}, nil)
	if SubgraphIsomorphic(pattern2, target) {
		t.Error("injectivity violated")
	}
}

// bruteForceSub is an exponential oracle: tries all injective mappings.
func bruteForceSub(pattern, target *graph.Graph) bool {
	np, nt := pattern.NumNodes(), target.NumNodes()
	if np > nt {
		return false
	}
	assign := make([]int, np)
	used := make([]bool, nt)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == np {
			return true
		}
		for tv := 0; tv < nt; tv++ {
			if used[tv] || target.NodeLabel(tv) != pattern.NodeLabel(i) {
				continue
			}
			ok := true
			for pu := 0; pu < i && ok; pu++ {
				l := pattern.EdgeLabel(i, pu)
				if l == graph.NoLabel {
					continue
				}
				if target.EdgeLabel(tv, assign[pu]) != l {
					ok = false
				}
			}
			if !ok {
				continue
			}
			assign[i] = tv
			used[tv] = true
			if rec(i + 1) {
				return true
			}
			used[tv] = false
		}
		return false
	}
	return rec(0)
}

func randGraph(r *rand.Rand, n, extra, nl, el int) *graph.Graph {
	g := graph.New(n, n-1+extra)
	for i := 0; i < n; i++ {
		g.AddNode(graph.Label(r.Intn(nl)))
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(r.Intn(i), i, graph.Label(r.Intn(el)))
	}
	for e := 0; e < extra; e++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, graph.Label(r.Intn(el)))
		}
	}
	return g
}

func TestPropertyVF2MatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		target := randGraph(rr, 3+rr.Intn(6), rr.Intn(5), 2, 2)
		pattern := randGraph(rr, 1+rr.Intn(4), rr.Intn(3), 2, 2)
		return SubgraphIsomorphic(pattern, target) == bruteForceSub(pattern, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestPropertySubgraphOfSelfUnderRelabel(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := randGraph(rr, 2+rr.Intn(8), rr.Intn(5), 3, 2)
		perm := rr.Perm(g.NumNodes())
		h := g.Relabel(perm)
		return SubgraphIsomorphic(g, h) && isomorphic(g, h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestSupportCounting(t *testing.T) {
	pattern := build([]graph.Label{1, 2}, [][3]int{{0, 1, 0}})
	db := []*graph.Graph{
		triangle(1, 2, 3), // contains 1-2
		triangle(1, 1, 1), // does not
		build([]graph.Label{2, 1}, [][3]int{{0, 1, 0}}), // contains
		build([]graph.Label{1, 2}, nil),                 // nodes but no edge
	}
	if got := Support(pattern, db); got != 2 {
		t.Errorf("Support = %d; want 2", got)
	}
	ids := SupportingIDs(pattern, db)
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Errorf("SupportingIDs = %v; want [0 2]", ids)
	}
}

func TestForEachEmbeddingEarlyStop(t *testing.T) {
	pattern := build([]graph.Label{1}, nil)
	target := build([]graph.Label{1, 1, 1, 1}, nil)
	calls := 0
	ForEachEmbedding(pattern, target, func(m []int) bool {
		calls++
		return calls < 2
	})
	if calls != 2 {
		t.Errorf("calls = %d; want 2 (early stop)", calls)
	}
}

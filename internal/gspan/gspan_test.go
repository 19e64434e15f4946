package gspan

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
	"graphsig/internal/runctl"
)

// maximalOf returns a closed-only mine's Maximal list after checking
// that it is a subsequence of the mine's patterns sharing their
// entries: the same graph and code, not a second spelling.
func maximalOf(t *testing.T, res Result) []dfscode.Pattern {
	t.Helper()
	j := 0
	for i, m := range res.Maximal {
		for j < len(res.Patterns) && res.Patterns[j].Graph != m.Graph {
			j++
		}
		if j == len(res.Patterns) || &res.Patterns[j].Code[0] != &m.Code[0] {
			t.Fatalf("maximal pattern %d does not share a pattern entry in emission order", i)
		}
	}
	return res.Maximal
}

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

func TestFromPercent(t *testing.T) {
	tests := []struct {
		pct  float64
		n    int
		want int
	}{
		{10, 100, 10},
		{0.1, 100, 1}, // floor of 1
		{50, 7, 3},
		{100, 7, 7},
	}
	for _, tc := range tests {
		if got := FromPercent(tc.pct, tc.n); got != tc.want {
			t.Errorf("FromPercent(%g,%d) = %d; want %d", tc.pct, tc.n, got, tc.want)
		}
	}
}

func TestMineSingleEdgeDatabase(t *testing.T) {
	db := []*graph.Graph{
		build([]graph.Label{1, 2}, [][3]int{{0, 1, 0}}),
		build([]graph.Label{1, 2}, [][3]int{{0, 1, 0}}),
		build([]graph.Label{1, 3}, [][3]int{{0, 1, 0}}),
	}
	res := Mine(db, Options{MinSupport: 2})
	if res.Truncated {
		t.Fatal("unexpected truncation")
	}
	if len(res.Patterns) != 1 {
		t.Fatalf("got %d patterns; want 1: %v", len(res.Patterns), res.Patterns)
	}
	p := res.Patterns[0]
	if p.Support != 2 || p.Graph.NumEdges() != 1 {
		t.Errorf("pattern = %+v", p)
	}
	if len(p.GraphIDs) != 2 || p.GraphIDs[0] != 0 || p.GraphIDs[1] != 1 {
		t.Errorf("GraphIDs = %v; want [0 1]", p.GraphIDs)
	}
}

func TestMineCommonTriangle(t *testing.T) {
	tri := func(extraLabel graph.Label) *graph.Graph {
		g := build([]graph.Label{1, 2, 3, extraLabel},
			[][3]int{{0, 1, 0}, {1, 2, 0}, {0, 2, 0}, {2, 3, 0}})
		return g
	}
	db := []*graph.Graph{tri(7), tri(8), tri(9)}
	res := Mine(db, Options{MinSupport: 3})
	// Expect every connected subgraph of the triangle: 3 single edges,
	// 3 two-edge paths... with labels 1,2,3 distinct: edges 1-2, 2-3,
	// 1-3 (3 patterns), paths of 2 edges (3 patterns), triangle (1).
	want := 7
	if len(res.Patterns) != want {
		for _, p := range res.Patterns {
			t.Logf("pattern: %s support=%d", p.Graph, p.Support)
		}
		t.Fatalf("got %d patterns; want %d", len(res.Patterns), want)
	}
	// The triangle itself must be among them with support 3.
	foundTriangle := false
	for _, p := range res.Patterns {
		if p.Graph.NumEdges() == 3 && p.Support == 3 {
			foundTriangle = true
		}
	}
	if !foundTriangle {
		t.Error("triangle not mined")
	}
}

func TestMineNoDuplicates(t *testing.T) {
	db := []*graph.Graph{
		build([]graph.Label{1, 1, 1, 1}, [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 0, 0}}),
		build([]graph.Label{1, 1, 1, 1}, [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 0, 0}}),
	}
	res := Mine(db, Options{MinSupport: 2})
	seen := map[string]bool{}
	for _, p := range res.Patterns {
		key := dfscode.Canonical(p.Graph)
		if seen[key] {
			t.Errorf("duplicate pattern %s", p.Graph)
		}
		seen[key] = true
	}
}

func TestMineMaxEdges(t *testing.T) {
	g := build([]graph.Label{1, 1, 1, 1}, [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}})
	db := []*graph.Graph{g, g.Clone()}
	res := Mine(db, Options{MinSupport: 2, MaxEdges: 2})
	for _, p := range res.Patterns {
		if p.Graph.NumEdges() > 2 {
			t.Errorf("pattern exceeds MaxEdges: %s", p.Graph)
		}
	}
}

func TestMineDeadlineTruncates(t *testing.T) {
	g := build([]graph.Label{1, 1, 1, 1, 1}, [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 4, 0}})
	db := []*graph.Graph{g, g.Clone()}
	ctl := runctl.New(runctl.Options{Deadline: time.Now().Add(-time.Second)})
	res := Mine(db, Options{MinSupport: 2, Ctl: ctl})
	if !res.Truncated || res.StopReason != runctl.ReasonDeadline {
		t.Errorf("truncated=%v reason=%q; want a deadline stop", res.Truncated, res.StopReason)
	}
}

func TestSupportIsAntiMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	db := randDB(r, 12, 6, 2, 2, 2)
	res := Mine(db, Options{MinSupport: 2})
	bySize := map[string]dfscode.Pattern{}
	for _, p := range res.Patterns {
		bySize[dfscode.Canonical(p.Graph)] = p
	}
	// Every pattern's support must be <= the support of each of its
	// single-edge sub-patterns (spot check via first edge).
	for _, p := range res.Patterns {
		if p.Graph.NumEdges() < 2 {
			continue
		}
		e := p.Graph.Edges()[0]
		sub := graph.New(2, 1)
		sub.AddNode(p.Graph.NodeLabel(e.From))
		sub.AddNode(p.Graph.NodeLabel(e.To))
		sub.MustAddEdge(0, 1, e.Label)
		parent, ok := bySize[dfscode.Canonical(sub)]
		if !ok {
			t.Errorf("sub-edge of %s not mined", p.Graph)
			continue
		}
		if p.Support > parent.Support {
			t.Errorf("anti-monotonicity violated: %s sup %d > edge sup %d", p.Graph, p.Support, parent.Support)
		}
	}
}

// bruteFrequent enumerates all connected subgraphs (>=1 edge, <= maxEdges)
// of every database graph by edge-subset enumeration and returns
// canonical -> support.
func bruteFrequent(db []*graph.Graph, minSup, maxEdges int) map[string]int {
	perGraph := make([]map[string]bool, len(db))
	for gi, g := range db {
		set := make(map[string]bool)
		edges := g.Edges()
		n := len(edges)
		for mask := 1; mask < (1 << n); mask++ {
			cnt := 0
			for b := 0; b < n; b++ {
				if mask&(1<<b) != 0 {
					cnt++
				}
			}
			if cnt > maxEdges {
				continue
			}
			nodes := map[int]bool{}
			sub := graph.New(0, cnt)
			idx := map[int]int{}
			for b := 0; b < n; b++ {
				if mask&(1<<b) == 0 {
					continue
				}
				e := edges[b]
				for _, v := range []int{e.From, e.To} {
					if !nodes[v] {
						nodes[v] = true
						idx[v] = sub.AddNode(g.NodeLabel(v))
					}
				}
				sub.MustAddEdge(idx[e.From], idx[e.To], e.Label)
			}
			if !sub.IsConnected() {
				continue
			}
			set[dfscode.Canonical(sub)] = true
		}
		perGraph[gi] = set
	}
	counts := map[string]int{}
	for _, set := range perGraph {
		for k := range set {
			counts[k]++
		}
	}
	for k, c := range counts {
		if c < minSup {
			delete(counts, k)
		}
	}
	return counts
}

func randDB(r *rand.Rand, count, maxNodes, maxExtra, nl, el int) []*graph.Graph {
	db := make([]*graph.Graph, count)
	for i := range db {
		n := 2 + r.Intn(maxNodes-1)
		g := graph.New(n, n)
		for v := 0; v < n; v++ {
			g.AddNode(graph.Label(r.Intn(nl)))
		}
		for v := 1; v < n; v++ {
			g.MustAddEdge(r.Intn(v), v, graph.Label(r.Intn(el)))
		}
		for e := 0; e < r.Intn(maxExtra+1); e++ {
			u, v := r.Intn(n), r.Intn(n)
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v, graph.Label(r.Intn(el)))
			}
		}
		g.ID = i
		db[i] = g
	}
	return db
}

func TestPropertyMineMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		db := randDB(rr, 3+rr.Intn(4), 5, 2, 2, 2)
		minSup := 1 + rr.Intn(3)
		const maxEdges = 4
		want := bruteFrequent(db, minSup, maxEdges)
		res := Mine(db, Options{MinSupport: minSup, MaxEdges: maxEdges})
		got := map[string]int{}
		for _, p := range res.Patterns {
			got[dfscode.Canonical(p.Graph)] = p.Support
		}
		if len(got) != len(want) {
			t.Logf("pattern count %d != %d (minSup=%d)", len(got), len(want), minSup)
			return false
		}
		for k, sup := range want {
			if got[k] != sup {
				t.Logf("support mismatch for %s: got %d want %d", k, got[k], sup)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestMaximal(t *testing.T) {
	db := []*graph.Graph{
		build([]graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 0}}),
		build([]graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 0}}),
	}
	max := maximalOf(t, Mine(db, Options{MinSupport: 2, ClosedOnly: true}))
	if len(max) != 1 {
		for _, p := range max {
			t.Logf("maximal: %s", p.Graph)
		}
		t.Fatalf("got %d maximal patterns; want 1", len(max))
	}
	if max[0].Graph.NumEdges() != 2 {
		t.Errorf("maximal pattern = %s; want the full path", max[0].Graph)
	}
}

func TestMaximalKeepsIncomparable(t *testing.T) {
	// Two graphs share edge 1-2 and edge 3-4 but never together, so both
	// single edges are maximal at support 2.
	db := []*graph.Graph{
		build([]graph.Label{1, 2, 3, 4}, [][3]int{{0, 1, 0}, {2, 3, 0}}),
		build([]graph.Label{1, 2, 3, 4}, [][3]int{{0, 1, 0}, {2, 3, 0}}),
	}
	max := maximalOf(t, Mine(db, Options{MinSupport: 2, ClosedOnly: true}))
	if len(max) != 2 {
		t.Fatalf("got %d maximal; want 2", len(max))
	}
}

func TestMineStats(t *testing.T) {
	g := build([]graph.Label{1, 1, 1, 1}, [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 0, 0}})
	db := []*graph.Graph{g, g.Clone()}
	res := Mine(db, Options{MinSupport: 2})
	if res.Stats.StatesExplored == 0 {
		t.Error("no states counted")
	}
	if res.Stats.StatesExplored < len(res.Patterns) {
		t.Error("fewer states than patterns")
	}
	// The symmetric 4-cycle forces duplicate DFS-code states.
	if res.Stats.MinimalityRejected == 0 {
		t.Error("expected minimality rejections on a symmetric cycle")
	}
	if res.Stats.ExtensionsTried < res.Stats.StatesExplored-1 {
		t.Errorf("stats inconsistent: %+v", res.Stats)
	}
}

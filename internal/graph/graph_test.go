package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// path returns a labeled path graph a-b-c-... with edge label 0.
func path(labels ...Label) *Graph {
	g := New(len(labels), len(labels)-1)
	for _, l := range labels {
		g.AddNode(l)
	}
	for i := 1; i < len(labels); i++ {
		g.MustAddEdge(i-1, i, 0)
	}
	return g
}

func TestAddNodeAndEdge(t *testing.T) {
	g := New(0, 0)
	a := g.AddNode(1)
	b := g.AddNode(2)
	c := g.AddNode(1)
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("node ids = %d,%d,%d; want 0,1,2", a, b, c)
	}
	g.MustAddEdge(a, b, 7)
	g.MustAddEdge(c, b, 8)
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d; want 3,2", g.NumNodes(), g.NumEdges())
	}
	if got := g.EdgeLabel(b, a); got != 7 {
		t.Errorf("EdgeLabel(b,a) = %d; want 7 (undirected)", got)
	}
	if got := g.EdgeLabel(a, c); got != NoLabel {
		t.Errorf("EdgeLabel(a,c) = %d; want NoLabel", got)
	}
	if g.Degree(b) != 2 || g.Degree(a) != 1 {
		t.Errorf("degrees = %d,%d; want 2,1", g.Degree(b), g.Degree(a))
	}
}

func TestAddEdgeRejectsDuplicate(t *testing.T) {
	g := path(1, 2)
	if err := g.AddEdge(1, 0, 5); err == nil {
		t.Fatal("duplicate edge accepted")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d after rejected duplicate; want 1", g.NumEdges())
	}
}

func TestAddEdgeNormalizesEndpoints(t *testing.T) {
	g := path(1, 2)
	g2 := New(2, 1)
	g2.AddNode(1)
	g2.AddNode(2)
	g2.MustAddEdge(1, 0, 0)
	e := g2.Edges()[0]
	if e.From != 0 || e.To != 1 {
		t.Errorf("edge stored as (%d,%d); want normalized (0,1)", e.From, e.To)
	}
	_ = g
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self loop did not panic")
		}
	}()
	g := path(1, 2)
	g.MustAddEdge(0, 0, 0)
}

func TestIsConnected(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"empty", New(0, 0), true},
		{"single", path(1), true},
		{"path", path(1, 2, 3), true},
	}
	disc := path(1, 2)
	disc.AddNode(3) // isolated node
	tests = append(tests, struct {
		name string
		g    *Graph
		want bool
	}{"disconnected", disc, false})

	for _, tc := range tests {
		if got := tc.g.IsConnected(); got != tc.want {
			t.Errorf("%s: IsConnected = %v; want %v", tc.name, got, tc.want)
		}
	}
}

// TestCutGraphInduced pins a window's shape: nodes in BFS order from the
// center, and exactly the host edges between window nodes, renumbered,
// normalized to From < To and kept in host order.
func TestCutGraphInduced(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 on node 2.
	g := New(4, 4)
	for i := 0; i < 4; i++ {
		g.AddNode(Label(i))
	}
	g.MustAddEdge(0, 1, 10)
	g.MustAddEdge(1, 2, 11)
	g.MustAddEdge(0, 2, 12)
	g.MustAddEdge(2, 3, 13)
	g.ID = 9

	// Radius 1 around node 1 visits 1, then 0 and 2 in edge order; the
	// pendant is two hops out and its edge is dropped.
	sub := g.CutGraph(1, 1)
	if !slices.Equal(sub.Labels(), []Label{1, 0, 2}) {
		t.Errorf("labels = %v; want [1 0 2]", sub.Labels())
	}
	if want := []Edge{{0, 1, 10}, {0, 2, 11}, {1, 2, 12}}; !slices.Equal(sub.Edges(), want) {
		t.Errorf("edges = %v; want %v", sub.Edges(), want)
	}
	if sub.EdgeLabel(1, 2) != 12 { // original edge (0,2)
		t.Errorf("edge (0,2) label = %d; want 12", sub.EdgeLabel(1, 2))
	}
	if sub.ID != 9 {
		t.Errorf("ID = %d; want 9", sub.ID)
	}

	// Radius 1 around node 2 takes the whole graph, renumbered 2, 1, 0, 3.
	sub = g.CutGraph(2, 1)
	if !slices.Equal(sub.Labels(), []Label{2, 1, 0, 3}) {
		t.Errorf("labels = %v; want [2 1 0 3]", sub.Labels())
	}
	if want := []Edge{{1, 2, 10}, {0, 1, 11}, {0, 2, 12}, {0, 3, 13}}; !slices.Equal(sub.Edges(), want) {
		t.Errorf("edges = %v; want %v", sub.Edges(), want)
	}
}

// TestFromEdgesRejects checks each input FromEdges refuses: an endpoint
// out of range on either side, a self loop, and a second edge between
// the same nodes in either orientation.
func TestFromEdgesRejects(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edges []Edge
	}{
		{"from out of range", []Edge{{3, 1, 0}}},
		{"to out of range", []Edge{{0, 3, 0}}},
		{"negative endpoint", []Edge{{-1, 1, 0}}},
		{"self loop", []Edge{{0, 1, 0}, {2, 2, 0}}},
		{"duplicate", []Edge{{0, 1, 0}, {1, 2, 0}, {0, 1, 5}}},
		{"duplicate reversed", []Edge{{0, 1, 0}, {1, 2, 0}, {2, 1, 0}}},
	} {
		if g, err := FromEdges([]Label{0, 1, 2}, tc.edges); err == nil {
			t.Errorf("%s: accepted as %v", tc.name, g)
		}
	}
}

func TestFromEdgesNormalizesAndFreezes(t *testing.T) {
	g, err := FromEdges([]Label{5, 6, 7}, []Edge{{2, 0, 1}, {1, 0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if want := []Edge{{0, 2, 1}, {0, 1, 2}}; !slices.Equal(g.Edges(), want) {
		t.Errorf("edges = %v; want %v", g.Edges(), want)
	}
	if g.csr.Load() == nil {
		t.Error("FromEdges returned an unfrozen graph")
	}
	if g.Degree(0) != 2 || g.EdgeLabel(1, 0) != 2 || g.HasEdge(1, 2) {
		t.Errorf("degree/label/adjacency wrong: %v", g)
	}
}

func TestCutGraph(t *testing.T) {
	// Path 0-1-2-3-4; ball of radius 2 around node 2 is the whole path,
	// radius 1 is {1,2,3}, radius 0 is {2}.
	g := path(0, 1, 2, 3, 4)
	for radius, wantN := range map[int]int{0: 1, 1: 3, 2: 5, 10: 5} {
		ball := g.CutGraph(2, radius)
		if ball.NumNodes() != wantN {
			t.Errorf("radius %d: %d nodes; want %d", radius, ball.NumNodes(), wantN)
		}
		if ball.NodeLabel(0) != 2 {
			t.Errorf("radius %d: center label %d; want 2", radius, ball.NodeLabel(0))
		}
		if !ball.IsConnected() {
			t.Errorf("radius %d: ball not connected", radius)
		}
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := New(3, 2)
	g.AddNode(5)
	g.AddNode(6)
	g.AddNode(7)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	perm := []int{2, 0, 1}
	h := g.Relabel(perm)
	if h.NodeLabel(2) != 5 || h.NodeLabel(0) != 6 || h.NodeLabel(1) != 7 {
		t.Fatalf("relabel moved labels incorrectly: %v", h.Labels())
	}
	if h.EdgeLabel(2, 0) != 1 || h.EdgeLabel(0, 1) != 2 {
		t.Fatalf("relabel moved edges incorrectly: %s", h)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := path(1, 2, 3)
	c := g.Clone()
	c.AddNode(9)
	c.MustAddEdge(0, 3, 5)
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatal("mutating clone changed original")
	}
}

// randomConnectedGraph builds a random connected labeled graph for
// property tests: a random spanning tree plus extra edges.
func randomConnectedGraph(r *rand.Rand, n, extraEdges, nodeLabels, edgeLabels int) *Graph {
	g := New(n, n-1+extraEdges)
	for i := 0; i < n; i++ {
		g.AddNode(Label(r.Intn(nodeLabels)))
	}
	for i := 1; i < n; i++ {
		g.MustAddEdge(r.Intn(i), i, Label(r.Intn(edgeLabels)))
	}
	for e := 0; e < extraEdges; e++ {
		u, v := r.Intn(n), r.Intn(n)
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, Label(r.Intn(edgeLabels)))
		}
	}
	return g
}

func TestPropertyCutGraphWithinRadius(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rr, 2+rr.Intn(20), rr.Intn(10), 3, 2)
		center := rr.Intn(g.NumNodes())
		radius := rr.Intn(4)
		ball := g.CutGraph(center, radius)
		// Every node of the ball must be within `radius` hops of its
		// center (node 0) inside the ball itself.
		dist := bfsDistances(ball, 0)
		for v, d := range dist {
			if d > radius {
				t.Logf("node %d at distance %d > radius %d", v, d, radius)
				return false
			}
		}
		return ball.IsConnected()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: r}); err != nil {
		t.Error(err)
	}
}

func bfsDistances(g *Graph, src int) []int {
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = 1 << 30
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.Neighbors(v, func(u int, _ Label) {
			if dist[u] > dist[v]+1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		})
	}
	return dist
}

func TestPropertyRelabelRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := randomConnectedGraph(rr, 2+rr.Intn(15), rr.Intn(8), 4, 3)
		n := g.NumNodes()
		perm := rr.Perm(n)
		inv := make([]int, n)
		for i, p := range perm {
			inv[p] = i
		}
		back := g.Relabel(perm).Relabel(inv)
		if back.NumNodes() != n || back.NumEdges() != g.NumEdges() {
			return false
		}
		for v := 0; v < n; v++ {
			if back.NodeLabel(v) != g.NodeLabel(v) {
				return false
			}
		}
		for _, e := range g.Edges() {
			if back.EdgeLabel(e.From, e.To) != e.Label {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestNeighborIDsAndLabels(t *testing.T) {
	g := path(7, 8, 9)
	var ids []int
	g.Neighbors(1, func(u int, _ Label) { ids = append(ids, u) })
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 2 {
		t.Errorf("Neighbors(1) = %v", ids)
	}
	labels := g.Labels()
	if len(labels) != 3 || labels[0] != 7 || labels[2] != 9 {
		t.Errorf("Labels = %v", labels)
	}
}

func TestMustAddEdgePanicsOnDuplicate(t *testing.T) {
	g := path(1, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on duplicate via MustAddEdge")
		}
	}()
	g.MustAddEdge(0, 1, 0)
}

func TestEdgeLabelOutOfRange(t *testing.T) {
	g := path(1, 2)
	if g.EdgeLabel(-1, 0) != NoLabel || g.EdgeLabel(5, 0) != NoLabel {
		t.Error("out-of-range EdgeLabel should be NoLabel")
	}
}

func TestAlphabetNames(t *testing.T) {
	a := NewAlphabet()
	a.Intern("x")
	a.Intern("y")
	names := a.Names()
	if len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Errorf("Names = %v", names)
	}
}

// failingWriter errors after n bytes, to exercise codec error paths.
type failingWriter struct{ n int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errFail
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errFail
	}
	w.n -= len(p)
	return len(p), nil
}

var errFail = &failError{}

type failError struct{}

func (*failError) Error() string { return "synthetic write failure" }

func TestWriteDBPropagatesErrors(t *testing.T) {
	g := path(1, 2, 3)
	g.ID = 0
	for _, budget := range []int{0, 3, 10, 16} {
		if err := WriteDB(&failingWriter{n: budget}, []*Graph{g}, nil); err == nil {
			t.Errorf("budget %d: no error", budget)
		}
	}
}

func TestWriteDOTPropagatesErrors(t *testing.T) {
	g := path(1, 2)
	for _, budget := range []int{0, 12, 30} {
		if err := WriteDOT(&failingWriter{n: budget}, g, "x", nil, nil); err == nil {
			t.Errorf("budget %d: no error", budget)
		}
	}
}

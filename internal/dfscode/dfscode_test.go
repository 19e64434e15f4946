package dfscode_test

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
)

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

func TestCompareEdgesStructuralOrder(t *testing.T) {
	fwd := func(i, j int) dfscode.EdgeCode { return dfscode.EdgeCode{I: i, J: j, LI: 0, LE: 0, LJ: 0} }
	tests := []struct {
		name string
		a, b dfscode.EdgeCode
		want int
	}{
		{"forward earlier discovery first", fwd(0, 1), fwd(1, 2), -1},
		{"same target deeper source first", fwd(1, 2), fwd(0, 2), -1},
		{"backward before forward from same vertex", fwd(2, 0), fwd(2, 3), -1},
		{"forward discovering v before backward from v", fwd(1, 3), fwd(3, 0), -1},
		{"backward by source index", fwd(1, 0), fwd(2, 0), -1},
		{"backward same source by target", fwd(2, 0), fwd(2, 1), -1},
	}
	for _, tc := range tests {
		if got := dfscode.CompareEdges(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: Compare = %d; want %d", tc.name, got, tc.want)
		}
		if got := dfscode.CompareEdges(tc.b, tc.a); got != -tc.want {
			t.Errorf("%s (reversed): Compare = %d; want %d", tc.name, got, -tc.want)
		}
	}
}

func TestCompareEdgesLabels(t *testing.T) {
	a := dfscode.EdgeCode{I: 0, J: 1, LI: 1, LE: 0, LJ: 2}
	b := dfscode.EdgeCode{I: 0, J: 1, LI: 1, LE: 0, LJ: 3}
	if dfscode.CompareEdges(a, b) != -1 || dfscode.CompareEdges(b, a) != 1 || dfscode.CompareEdges(a, a) != 0 {
		t.Error("label tie-break wrong")
	}
}

func TestCodeGraphRoundTrip(t *testing.T) {
	c := dfscode.Code{
		{I: 0, J: 1, LI: 5, LE: 0, LJ: 6},
		{I: 1, J: 2, LI: 6, LE: 1, LJ: 7},
		{I: 2, J: 0, LI: 7, LE: 2, LJ: 5}, // backward, closes triangle
	}
	g := c.Graph()
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d; want 3,3", g.NumNodes(), g.NumEdges())
	}
	if g.NodeLabel(2) != 7 || g.EdgeLabel(2, 0) != 2 {
		t.Fatalf("wrong reconstruction: %s", g)
	}
}

func TestRightmostPath(t *testing.T) {
	// 0-1-2 path then backward 2-0 then forward from 1 to 3.
	c := dfscode.Code{
		{I: 0, J: 1},
		{I: 1, J: 2},
		{I: 2, J: 0},
		{I: 1, J: 3},
	}
	got := c.RightmostPath()
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("path = %v; want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path = %v; want %v", got, want)
		}
	}
}

func TestMinimumCodeTriangleInvariant(t *testing.T) {
	// All vertex orderings of the same labeled triangle must give the
	// same minimum code.
	base := build([]graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 0}, {0, 2, 0}})
	want := dfscode.MinimumCode(base).String()
	perms := [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, p := range perms {
		got := dfscode.MinimumCode(base.Relabel(p)).String()
		if got != want {
			t.Errorf("perm %v: code %s; want %s", p, got, want)
		}
	}
}

func TestMinimumCodeDistinguishesStructures(t *testing.T) {
	path4 := build([]graph.Label{1, 1, 1, 1}, [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}})
	star4 := build([]graph.Label{1, 1, 1, 1}, [][3]int{{0, 1, 0}, {0, 2, 0}, {0, 3, 0}})
	if dfscode.Canonical(path4) == dfscode.Canonical(star4) {
		t.Error("path4 and star4 share a canonical code")
	}
}

func TestMinimumCodeFirstEdgeIsSmallest(t *testing.T) {
	g := build([]graph.Label{3, 1, 2}, [][3]int{{0, 1, 1}, {1, 2, 0}})
	c := dfscode.MinimumCode(g)
	if c[0].LI != 1 {
		t.Errorf("first code entry starts at label %d; want 1 (smallest)", c[0].LI)
	}
}

func TestIsMinimal(t *testing.T) {
	g := build([]graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 0}, {0, 2, 0}})
	min := dfscode.MinimumCode(g)
	if !dfscode.IsMinimal(min) {
		t.Fatal("minimum code reported non-minimal")
	}
	// A valid but non-minimal code of the same triangle: start from the
	// largest label.
	nonMin := dfscode.Code{
		{I: 0, J: 1, LI: 3, LE: 0, LJ: 1},
		{I: 1, J: 2, LI: 1, LE: 0, LJ: 2},
		{I: 2, J: 0, LI: 2, LE: 0, LJ: 3},
	}
	if dfscode.IsMinimal(nonMin) {
		t.Error("non-minimal code reported minimal")
	}
}

func TestCanonicalSingleVertex(t *testing.T) {
	a := build([]graph.Label{4}, nil)
	b := build([]graph.Label{4}, nil)
	c := build([]graph.Label{5}, nil)
	if dfscode.Canonical(a) != dfscode.Canonical(b) {
		t.Error("equal single vertices differ")
	}
	if dfscode.Canonical(a) == dfscode.Canonical(c) {
		t.Error("different single vertices collide")
	}
}

func randConnected(r *rand.Rand, n, extra, nl, el int) *graph.Graph {
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

func TestPropertyCanonicalInvariantUnderRelabel(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := randConnected(rr, 2+rr.Intn(7), rr.Intn(4), 2, 2)
		h := g.Relabel(rr.Perm(g.NumNodes()))
		return dfscode.Canonical(g) == dfscode.Canonical(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCanonicalSeparatesNonIsomorphic(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randConnected(rr, 2+rr.Intn(6), rr.Intn(4), 2, 2)
		b := randConnected(rr, 2+rr.Intn(6), rr.Intn(4), 2, 2)
		// Canonical equality must coincide with isomorphism.
		return (dfscode.Canonical(a) == dfscode.Canonical(b)) == isomorphic(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMinCodeGraphIsomorphicToOriginal(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := randConnected(rr, 2+rr.Intn(7), rr.Intn(4), 3, 2)
		back := dfscode.MinimumCode(g).Graph()
		return isomorphic(g, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMinimumCodeIsMinimal(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		g := randConnected(rr, 2+rr.Intn(6), rr.Intn(4), 2, 2)
		return dfscode.IsMinimal(dfscode.MinimumCode(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestMinimumCodePanicsOnDisconnected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for disconnected graph")
		}
	}()
	g := build([]graph.Label{1, 2}, nil)
	dfscode.MinimumCode(g)
}

func TestCodeString(t *testing.T) {
	c := dfscode.Code{{I: 0, J: 1, LI: 5, LE: 2, LJ: 7}}
	if got := c.String(); got != "(0,1,5,2,7)" {
		t.Errorf("String = %q", got)
	}
}

func TestCodeGraphPanicsOnMalformed(t *testing.T) {
	cases := []dfscode.Code{
		{{I: 1, J: 2, LI: 0, LE: 0, LJ: 0}},                                    // first entry not (0,1)
		{{I: 0, J: 1, LI: 0, LE: 0, LJ: 0}, {I: 0, J: 3, LI: 0, LE: 0, LJ: 0}}, // skips vertex 2
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			c.Graph()
		}()
	}
}

func TestMinimumCodeSingleEdgeOrientation(t *testing.T) {
	// Edge with asymmetric labels: min code starts from the smaller.
	g := build([]graph.Label{9, 2}, [][3]int{{0, 1, 4}})
	c := dfscode.MinimumCode(g)
	if len(c) != 1 || c[0].LI != 2 || c[0].LJ != 9 || c[0].LE != 4 {
		t.Errorf("code = %v", c)
	}
}

func TestRightmostPathEmptyCode(t *testing.T) {
	if got := (dfscode.Code{}).RightmostPath(); got != nil {
		t.Errorf("empty code path = %v", got)
	}
}

// isomorphic reports whether a and b are isomorphic as labeled graphs:
// with equal node and edge counts, an embedding of a in b maps nodes
// and edges bijectively.
func isomorphic(a, b *graph.Graph) bool {
	return a.NumNodes() == b.NumNodes() && a.NumEdges() == b.NumEdges() && isomorph.SubgraphIsomorphic(a, b)
}

// TestCompareRenderedMatchesStrings checks CompareRendered against
// strings.Compare of the String renderings over random entries whose
// fields straddle digit-count boundaries (9/10, 99/100).
func TestCompareRenderedMatchesStrings(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	field := func() int { return []int{0, 1, 2, 9, 10, 11, 19, 99, 100, 101}[r.Intn(10)] }
	entry := func() dfscode.EdgeCode {
		return dfscode.EdgeCode{I: field(), J: field(), LI: graph.Label(field()), LE: graph.Label(field()), LJ: graph.Label(field())}
	}
	for i := 0; i < 20000; i++ {
		a, b := entry(), entry()
		if r.Intn(4) == 0 {
			b = a
			b.LJ = graph.Label(field())
		}
		want := strings.Compare(dfscode.Code{a}.String(), dfscode.Code{b}.String())
		if got := dfscode.CompareRendered(a, b); got != want {
			t.Fatalf("CompareRendered(%s, %s) = %d, strings.Compare %d", dfscode.Code{a}, dfscode.Code{b}, got, want)
		}
	}
}

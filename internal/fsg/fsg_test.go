package fsg

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
	"graphsig/internal/gspan"
	"graphsig/internal/runctl"
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

func TestFrequentEdgesLevel(t *testing.T) {
	db := []*graph.Graph{
		build([]graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 0}}),
		build([]graph.Label{1, 2}, [][3]int{{0, 1, 0}}),
	}
	res := Mine(db, Options{MinSupport: 2, MaxEdges: 1})
	if len(res.Patterns) != 1 {
		t.Fatalf("got %d patterns; want 1", len(res.Patterns))
	}
	p := res.Patterns[0]
	if p.Support != 2 || p.Graph.NumEdges() != 1 {
		t.Errorf("pattern = %+v", p)
	}
	if len(res.Levels) != 1 || res.Levels[0] != 1 {
		t.Errorf("levels = %v; want [1]", res.Levels)
	}
}

func TestMineGrowsLevels(t *testing.T) {
	path := build([]graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 0}})
	db := []*graph.Graph{path, path.Clone(), path.Clone()}
	res := Mine(db, Options{MinSupport: 3})
	// Patterns: edges 1-2, 2-3, and the path; all with support 3.
	if len(res.Patterns) != 3 {
		for _, p := range res.Patterns {
			t.Logf("%s sup=%d", p.Graph, p.Support)
		}
		t.Fatalf("got %d patterns; want 3", len(res.Patterns))
	}
	if len(res.Levels) != 2 || res.Levels[0] != 2 || res.Levels[1] != 1 {
		t.Errorf("levels = %v; want [2 1]", res.Levels)
	}
}

func TestMineTIDListsAreExact(t *testing.T) {
	db := []*graph.Graph{
		build([]graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 0}}),
		build([]graph.Label{1, 2}, [][3]int{{0, 1, 0}}),
		build([]graph.Label{2, 3}, [][3]int{{0, 1, 0}}),
	}
	res := Mine(db, Options{MinSupport: 1})
	for _, p := range res.Patterns {
		if p.Graph.NumEdges() == 2 {
			if len(p.GraphIDs) != 1 || p.GraphIDs[0] != 0 {
				t.Errorf("path TID list = %v; want [0]", p.GraphIDs)
			}
		}
	}
}

func randDB(r *rand.Rand, count, maxNodes, nl, el int) []*graph.Graph {
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
		for e := 0; e < r.Intn(3); e++ {
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

// TestPropertyFSGMatchesGSpan: both miners must produce the same set of
// frequent patterns with the same supports.
func TestPropertyFSGMatchesGSpan(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		db := randDB(rr, 3+rr.Intn(4), 5, 2, 2)
		minSup := 1 + rr.Intn(3)
		const maxEdges = 4
		fsgRes := Mine(db, Options{MinSupport: minSup, MaxEdges: maxEdges})
		gspanRes := gspan.Mine(db, gspan.Options{MinSupport: minSup, MaxEdges: maxEdges})
		a := map[string]int{}
		for _, p := range fsgRes.Patterns {
			a[dfscode.Canonical(p.Graph)] = p.Support
		}
		b := map[string]int{}
		for _, p := range gspanRes.Patterns {
			b[dfscode.Canonical(p.Graph)] = p.Support
		}
		if len(a) != len(b) {
			t.Logf("fsg %d patterns, gspan %d (minSup=%d)", len(a), len(b), minSup)
			return false
		}
		for k, v := range a {
			if b[k] != v {
				t.Logf("mismatch %s: fsg %d gspan %d", k, v, b[k])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestMaximalMine(t *testing.T) {
	path := build([]graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 0}})
	db := []*graph.Graph{path, path.Clone(), path.Clone()}
	res := MaximalMine(db, Options{MinSupport: 3})
	if len(res.Patterns) != 1 {
		t.Fatalf("got %d maximal patterns; want 1", len(res.Patterns))
	}
	if res.Patterns[0].Graph.NumEdges() != 2 {
		t.Errorf("maximal = %s; want full path", res.Patterns[0].Graph)
	}
}

func TestMaximalMineHighThresholdFiltersNoise(t *testing.T) {
	// Three graphs share a triangle; one has extra noise. At 100%
	// support the maximal pattern is exactly the triangle.
	tri := [][3]int{{0, 1, 0}, {1, 2, 0}, {0, 2, 0}}
	g1 := build([]graph.Label{1, 2, 3}, tri)
	g2 := build([]graph.Label{1, 2, 3, 9}, append(append([][3]int{}, tri...), [3]int{2, 3, 1}))
	g3 := build([]graph.Label{1, 2, 3, 8}, append(append([][3]int{}, tri...), [3]int{0, 3, 1}))
	res := MaximalMine([]*graph.Graph{g1, g2, g3}, Options{MinSupport: 3})
	if len(res.Patterns) != 1 {
		for _, p := range res.Patterns {
			t.Logf("%s sup=%d", p.Graph, p.Support)
		}
		t.Fatalf("got %d maximal; want 1", len(res.Patterns))
	}
	if res.Patterns[0].Graph.NumEdges() != 3 || res.Patterns[0].Support != 3 {
		t.Errorf("maximal = %+v", res.Patterns[0])
	}
}

func TestDeadlineTruncates(t *testing.T) {
	g := build([]graph.Label{1, 1, 1, 1}, [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}})
	db := []*graph.Graph{g, g.Clone()}
	ctl := runctl.New(runctl.Options{Deadline: time.Now().Add(-time.Second)})
	res := Mine(db, Options{MinSupport: 2, Ctl: ctl})
	if !res.Truncated || res.StopReason != runctl.ReasonDeadline {
		t.Errorf("truncated=%v reason=%q; want a deadline stop", res.Truncated, res.StopReason)
	}
}

func TestEmptyDatabase(t *testing.T) {
	res := Mine(nil, Options{MinSupport: 1})
	if len(res.Patterns) != 0 || res.Truncated {
		t.Errorf("unexpected result: %+v", res)
	}
}

func TestCandidatesGeneratedCounted(t *testing.T) {
	path := build([]graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 0}})
	db := []*graph.Graph{path, path.Clone(), path.Clone()}
	res := Mine(db, Options{MinSupport: 3})
	if res.CandidatesGenerated == 0 {
		t.Error("no candidates counted")
	}
	// Candidates are at least the surviving level-2+ patterns.
	survivors := 0
	for _, p := range res.Patterns {
		if p.Graph.NumEdges() >= 2 {
			survivors++
		}
	}
	if res.CandidatesGenerated < survivors {
		t.Errorf("candidates %d < survivors %d", res.CandidatesGenerated, survivors)
	}
}

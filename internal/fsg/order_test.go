package fsg

import (
	"math/rand"
	"strings"
	"testing"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
)

// wideDB plants random connected pieces of one template graph that
// carries 14 node labels and 12 edge labels, plus a noise pendant, so
// the frequent patterns mix labels on both sides of 9/10, where numeric
// and rendered order part ways.
func wideDB(r *rand.Rand, count int) []*graph.Graph {
	const nodeLabels, edgeLabels = 14, 12
	tmpl := graph.New(nodeLabels, nodeLabels+3)
	for _, l := range r.Perm(nodeLabels) {
		tmpl.AddNode(graph.Label(l))
	}
	for v := 1; v < nodeLabels; v++ {
		tmpl.MustAddEdge(r.Intn(v), v, graph.Label(v%edgeLabels))
	}
	for tmpl.NumEdges() < nodeLabels+3 {
		if u, v := r.Intn(nodeLabels), r.Intn(nodeLabels); u != v && !tmpl.HasEdge(u, v) {
			tmpl.MustAddEdge(u, v, graph.Label(r.Intn(edgeLabels)))
		}
	}
	db := make([]*graph.Graph, count)
	for i := range db {
		nodes := []int{r.Intn(nodeLabels)}
		in := map[int]bool{nodes[0]: true}
		for size := 3 + r.Intn(5); len(nodes) < size; {
			v := nodes[r.Intn(len(nodes))]
			tmpl.Neighbors(v, func(u int, _ graph.Label) {
				if !in[u] && len(nodes) < size && r.Intn(2) == 0 {
					in[u] = true
					nodes = append(nodes, u)
				}
			})
		}
		// The piece induced on nodes, in that order, plus the pendant.
		pos := make([]int, nodeLabels)
		labels := make([]graph.Label, len(nodes), len(nodes)+1)
		for k, v := range nodes {
			pos[v] = k + 1
			labels[k] = tmpl.NodeLabel(v)
		}
		var edges []graph.Edge
		for _, e := range tmpl.Edges() {
			if pos[e.From] > 0 && pos[e.To] > 0 {
				edges = append(edges, graph.Edge{From: pos[e.From] - 1, To: pos[e.To] - 1, Label: e.Label})
			}
		}
		anchor := r.Intn(len(labels))
		labels = append(labels, graph.Label(r.Intn(nodeLabels)))
		edges = append(edges, graph.Edge{From: anchor, To: len(labels) - 1, Label: graph.Label(r.Intn(edgeLabels))})
		g, err := graph.FromEdges(labels, edges)
		if err != nil {
			panic(err)
		}
		g.ID = i
		db[i] = g
	}
	return db
}

// TestLevelOrderWideAlphabets pins the order a full mine emits its
// levels in over alphabets wide enough for numeric and rendered order
// to differ: level 1 in numeric (a, e, b) order, and every later level
// in strictly increasing strings.Compare order of its patterns'
// rendered minimum codes.
func TestLevelOrderWideAlphabets(t *testing.T) {
	db := wideDB(rand.New(rand.NewSource(5)), 40)
	nodeLabels, edgeLabels := map[graph.Label]bool{}, map[graph.Label]bool{}
	for _, g := range db {
		for _, l := range g.Labels() {
			nodeLabels[l] = true
		}
		for _, e := range g.Edges() {
			edgeLabels[e.Label] = true
		}
	}
	if len(nodeLabels) < 12 || len(edgeLabels) < 10 {
		t.Fatalf("database has %d node and %d edge labels, want at least 12 and 10", len(nodeLabels), len(edgeLabels))
	}
	res := Mine(db, Options{MinSupport: 2})
	if res.Truncated || len(res.Levels) < 4 {
		t.Fatalf("levels %v, truncated %v; want at least 4 complete levels", res.Levels, res.Truncated)
	}
	start, parted := 0, false
	for li, n := range res.Levels {
		level := res.Patterns[start : start+n]
		start += n
		for i := 1; i < len(level); i++ {
			a, b := dfscode.MinimumCode(level[i-1].Code.Graph()), dfscode.MinimumCode(level[i].Code.Graph())
			if li == 0 {
				x, y := a[0], b[0]
				if x.LI > y.LI || x.LI == y.LI && (x.LE > y.LE || x.LE == y.LE && x.LJ >= y.LJ) {
					t.Fatalf("level 1: %s before %s, want numeric (a, e, b) order", a, b)
				}
				parted = parted || strings.Compare(a.String(), b.String()) > 0
				continue
			}
			if strings.Compare(a.String(), b.String()) >= 0 {
				t.Fatalf("level %d: %s before %s, want rendered order", li+1, a, b)
			}
		}
	}
	if !parted {
		t.Fatal("level 1's numeric order equals its rendered order; the database does not separate them")
	}
	t.Logf("levels %v", res.Levels)
}

package graph_test

import (
	"math/rand"
	"slices"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/graph"
	"graphsig/internal/graph/reference"
)

// sameGraph fails t unless got and want have the same node labels, edge
// list and CSR arrays.
func sameGraph(t *testing.T, what string, got, want *graph.Graph) {
	t.Helper()
	if !slices.Equal(got.Labels(), want.Labels()) {
		t.Fatalf("%s: labels %v, want %v", what, got.Labels(), want.Labels())
	}
	if !slices.Equal(got.Edges(), want.Edges()) {
		t.Fatalf("%s: edges %v, want %v", what, got.Edges(), want.Edges())
	}
	gc, wc := got.CSR(), want.CSR()
	if !slices.Equal(gc.NodeLabels, wc.NodeLabels) || !slices.Equal(gc.RowStart, wc.RowStart) ||
		!slices.Equal(gc.Nbr, wc.Nbr) || !slices.Equal(gc.EdgeLabels, wc.EdgeLabels) || !slices.Equal(gc.EdgeIDs, wc.EdgeIDs) {
		t.Fatalf("%s: CSR %+v, want %+v", what, gc, wc)
	}
}

// fromEdgesOf rebuilds g through FromEdges from copies of its labels and
// edges, each odd edge given in the opposite orientation so the
// normalization is exercised.
func fromEdgesOf(g *graph.Graph) (*graph.Graph, error) {
	edges := slices.Clone(g.Edges())
	for i := 1; i < len(edges); i += 2 {
		edges[i].From, edges[i].To = edges[i].To, edges[i].From
	}
	return graph.FromEdges(slices.Clone(g.Labels()), edges)
}

// TestFromEdgesMatchesReplay checks that on valid input FromEdges gives
// the labels, edge list and CSR arrays of an AddNode/AddEdge replay of
// the same lists, and of a round trip through the reference
// adjacency-list representation.
func TestFromEdgesMatchesReplay(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(20)
		replay := graph.New(n, 0)
		for v := 0; v < n; v++ {
			replay.AddNode(graph.Label(r.Intn(4)))
		}
		for k := r.Intn(3 * n); k > 0; k-- {
			if u, v := r.Intn(n), r.Intn(n); u != v && !replay.HasEdge(u, v) {
				replay.MustAddEdge(u, v, graph.Label(r.Intn(3)))
			}
		}
		got, err := fromEdgesOf(replay)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sameGraph(t, "replay", got, replay)
		sameGraph(t, "reference", got, reference.FromGraph(replay).ToGraph())
	}
}

// TestCutGraphWindowsMatchReference is the window gate: on the benchjson
// corpus (120 MOLT-4 molecules) at radii 3 and 5, every window CutGraph
// cuts has the labels, edge list and CSR arrays of the reference
// representation's window, which is cut by a FIFO BFS, induced through
// an index map and built by AddNode/AddEdge replay.
func TestCutGraphWindowsMatchReference(t *testing.T) {
	db := chem.GenerateN(chem.CancerSpecs()[1], 120).Graphs
	windows := 0
	for _, g := range db {
		ref := reference.FromGraph(g)
		for _, radius := range []int{3, 5} {
			for v := 0; v < g.NumNodes(); v++ {
				got := g.CutGraph(v, radius)
				want := ref.CutGraph(v, radius).ToGraph()
				sameGraph(t, "window", got, want)
				if got.ID != g.ID {
					t.Fatalf("window of graph %d has ID %d", g.ID, got.ID)
				}
				windows++
			}
		}
	}
	t.Logf("%d windows", windows)
}

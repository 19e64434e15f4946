package graph_test

// Differential fuzzing of the CSR graph core against the frozen
// adjacency-list implementation in internal/graph/reference. The fuzzer
// interprets the input bytes as a construction script (add node / add
// edge), replays it against both representations, and requires identical
// observations: adjacency iteration order, degrees, edge labels,
// connectivity, BFS cut windows, and codec + fingerprint round-trips. The
// same graph is also built in one call through graph.FromEdges, which
// must give identical labels, edges and CSR arrays.
// Iteration order is part of the Graph contract — CutGraph node order,
// DFS codes, and therefore the mining answer set all depend on it — so
// the comparisons below check order, not just set equality.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"graphsig/internal/graph"
	"graphsig/internal/graph/reference"
)

const (
	fuzzMaxNodes = 24
	fuzzMaxEdges = 64
)

// buildPair replays the byte script against both representations.
// Scripts are interpreted 3 bytes at a time: opcode, then operands.
func buildPair(data []byte) (*graph.Graph, *reference.Graph) {
	g := graph.New(0, 0)
	r := reference.New(0, 0)
	for i := 0; i+2 < len(data); i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		n := g.NumNodes()
		switch {
		case op%3 == 0 && n < fuzzMaxNodes:
			l := graph.Label(a % 7)
			g.AddNode(l)
			r.AddNode(l)
		case n >= 2 && g.NumEdges() < fuzzMaxEdges:
			u, v := int(a)%n, int(b)%n
			if u == v {
				continue
			}
			l := graph.Label(op % 5)
			errG := g.AddEdge(u, v, l)
			errR := r.AddEdge(u, v, l)
			if (errG == nil) != (errR == nil) {
				panic(fmt.Sprintf("AddEdge(%d,%d) disagreement: csr=%v reference=%v", u, v, errG, errR))
			}
		}
	}
	return g, r
}

func fingerprintOne(g *graph.Graph) string {
	return graph.Fingerprint([]*graph.Graph{g})
}

func FuzzCSRRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 2, 0, 1, 0, 1})
	// A small molecule-ish script: several nodes, then a mix of edges.
	f.Add([]byte{
		0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 1, 0, 0, 2, 0,
		1, 0, 1, 1, 1, 2, 4, 2, 3, 1, 3, 4, 2, 0, 4,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, r := buildPair(data)
		if g.NumNodes() != r.NumNodes() || g.NumEdges() != r.NumEdges() {
			t.Fatalf("size mismatch: %d/%d vs %d/%d", g.NumNodes(), g.NumEdges(), r.NumNodes(), r.NumEdges())
		}

		// Adjacency iteration order, degree, and per-pair edge labels.
		for v := 0; v < g.NumNodes(); v++ {
			if g.NodeLabel(v) != r.NodeLabel(v) {
				t.Fatalf("node %d label %d vs %d", v, g.NodeLabel(v), r.NodeLabel(v))
			}
			if g.Degree(v) != r.Degree(v) {
				t.Fatalf("node %d degree %d vs %d", v, g.Degree(v), r.Degree(v))
			}
			var got, want []int64
			g.Neighbors(v, func(u int, l graph.Label) { got = append(got, int64(u)<<32|int64(uint32(l))) })
			r.Neighbors(v, func(u int, l graph.Label) { want = append(want, int64(u)<<32|int64(uint32(l))) })
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("node %d adjacency order diverges at slot %d", v, i)
				}
			}
			for u := 0; u < g.NumNodes(); u++ {
				if g.EdgeLabel(v, u) != r.EdgeLabel(v, u) {
					t.Fatalf("EdgeLabel(%d,%d): %d vs %d", v, u, g.EdgeLabel(v, u), r.EdgeLabel(v, u))
				}
			}
		}
		if g.IsConnected() != r.IsConnected() {
			t.Fatalf("IsConnected: %v vs %v", g.IsConnected(), r.IsConnected())
		}

		// BFS cut windows share node visit order across representations.
		for center := 0; center < g.NumNodes(); center += 5 {
			for radius := 0; radius <= 2; radius++ {
				a := fingerprintOne(g.CutGraph(center, radius))
				b := fingerprintOne(r.CutGraph(center, radius).ToGraph())
				if a != b {
					t.Fatalf("CutGraph(%d,%d) fingerprint %s vs %s", center, radius, a, b)
				}
			}
		}

		// Codec round-trip preserves the fingerprint, and freezing (CSR
		// build) does not disturb it.
		fp := fingerprintOne(g)
		if got := fingerprintOne(g.Freeze()); got != fp {
			t.Fatalf("Freeze changed fingerprint: %s vs %s", got, fp)
		}
		var buf bytes.Buffer
		if err := graph.WriteDB(&buf, []*graph.Graph{g}, nil); err != nil {
			t.Fatalf("WriteDB: %v", err)
		}
		decoded, err := graph.ReadDB(bytes.NewReader(buf.Bytes()), nil)
		if err != nil {
			t.Fatalf("ReadDB: %v", err)
		}
		if len(decoded) != 1 {
			t.Fatalf("decoded %d graphs, want 1", len(decoded))
		}
		decoded[0].ID = g.ID
		if got := fingerprintOne(decoded[0]); got != fp {
			t.Fatalf("codec round-trip fingerprint %s vs %s", got, fp)
		}
		// Round-trip through the reference representation is also exact.
		if got := fingerprintOne(reference.FromGraph(g).ToGraph()); got != fp {
			t.Fatalf("reference round-trip fingerprint %s vs %s", got, fp)
		}

		// The bulk constructor builds the same graph from the same lists,
		// and refuses them with any edge repeated in either orientation.
		built, err := fromEdgesOf(g)
		if err != nil {
			t.Fatalf("FromEdges: %v", err)
		}
		sameGraph(t, "FromEdges", built, g)
		if m := g.NumEdges(); m > 0 {
			e := g.Edges()[int(data[0])%m]
			dup := append(slices.Clone(g.Edges()), graph.Edge{From: e.To, To: e.From, Label: e.Label})
			if _, err := graph.FromEdges(slices.Clone(g.Labels()), dup); err == nil {
				t.Fatalf("FromEdges accepted duplicate edge (%d,%d)", e.To, e.From)
			}
		}
	})
}

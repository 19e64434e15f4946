package gspan

import (
	"math/rand"
	"testing"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
)

// Closed filters patterns down to the closed ones: patterns with no
// super-pattern of identical support in the list (the CloseGraph output
// condition, Yan & Han KDD 2003). Mining all frequent patterns and
// filtering is exponentially worse than CloseGraph's native pruning, but
// the output set is identical, which makes it the reference the
// ClosedOnly tests check the miner against.
func Closed(patterns []dfscode.Pattern) []dfscode.Pattern {
	// Group by support first: a closed-ness witness must have equal
	// support, so only same-support patterns need isomorphism checks.
	bySupport := map[int][]int{}
	for i, p := range patterns {
		bySupport[p.Support] = append(bySupport[p.Support], i)
	}
	var out []dfscode.Pattern
	for _, p := range patterns {
		closed := true
		for _, j := range bySupport[p.Support] {
			q := patterns[j]
			if q.Graph.NumEdges() <= p.Graph.NumEdges() {
				continue
			}
			if isomorph.SubgraphIsomorphic(p.Graph, q.Graph) {
				closed = false
				break
			}
		}
		if closed {
			out = append(out, p)
		}
	}
	return out
}

// Maximal filters patterns down to the maximal ones: patterns with no
// strictly larger pattern in the list containing them, whatever its
// support. Over a full mine's output that is the maximal frequent set,
// the reference Result.Maximal is checked against.
func Maximal(patterns []dfscode.Pattern) []dfscode.Pattern {
	var out []dfscode.Pattern
	for _, p := range patterns {
		maximal := true
		for _, q := range patterns {
			if q.Graph.NumEdges() > p.Graph.NumEdges() && isomorph.SubgraphIsomorphic(p.Graph, q.Graph) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, p)
		}
	}
	return out
}

func TestClosedFiltersSubsumedPatterns(t *testing.T) {
	// Path a-b-c in every graph: the edges a-b and b-c have the same
	// support as the full path, so only the path is closed.
	path := build([]graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 0}})
	db := []*graph.Graph{path, path.Clone(), path.Clone()}
	res := Mine(db, Options{MinSupport: 3})
	closed := Closed(res.Patterns)
	if len(closed) != 1 {
		for _, p := range closed {
			t.Logf("closed: %s sup=%d", p.Graph, p.Support)
		}
		t.Fatalf("got %d closed patterns; want 1", len(closed))
	}
	if closed[0].Graph.NumEdges() != 2 {
		t.Errorf("closed pattern = %s; want the full path", closed[0].Graph)
	}
}

func TestClosedKeepsSupportDrops(t *testing.T) {
	// Edge 1-2 appears in 3 graphs; the extension 1-2-3 only in 2. Both
	// are closed (different supports).
	path := build([]graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 0}})
	edge := build([]graph.Label{1, 2}, [][3]int{{0, 1, 0}})
	db := []*graph.Graph{path, path.Clone(), edge}
	res := Mine(db, Options{MinSupport: 2})
	closed := Closed(res.Patterns)
	var sizes []int
	for _, p := range closed {
		sizes = append(sizes, p.Graph.NumEdges())
	}
	if len(closed) != 2 {
		t.Fatalf("closed sizes = %v; want one 1-edge and one 2-edge", sizes)
	}
}

func TestClosedSubsetOfAll(t *testing.T) {
	db := randDB(rand.New(rand.NewSource(12)), 10, 6, 2, 2, 2)
	res := Mine(db, Options{MinSupport: 2, MaxEdges: 4})
	closed := Closed(res.Patterns)
	if len(closed) > len(res.Patterns) {
		t.Fatal("closed set larger than full set")
	}
	// Every frequent pattern must be represented by a closed super-
	// pattern of equal support.
	for _, p := range res.Patterns {
		found := false
		for _, c := range closed {
			if c.Support == p.Support && isomorph.SubgraphIsomorphic(p.Graph, c.Graph) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("pattern %s (sup %d) has no closed representative", p.Graph, p.Support)
		}
	}
}

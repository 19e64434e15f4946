package fsg

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
)

func fsgSig(p dfscode.Pattern) string {
	return fmt.Sprintf("%s|%d|%v", dfscode.Canonical(p.Code.Graph()), p.Support, p.GraphIDs)
}

// oracleUndominated filters a pattern list by brute force: a pattern
// survives unless some strictly larger pattern in the list contains it
// (VF2) and, when sameSupport is set, has identical support. With
// sameSupport that keeps the closed patterns, without it the maximal
// ones. The production closure and maximality checks never run VF2, so
// this is a genuinely independent oracle.
func oracleUndominated(patterns []dfscode.Pattern, sameSupport bool) []dfscode.Pattern {
	var out []dfscode.Pattern
	for _, p := range patterns {
		kept := true
		for _, q := range patterns {
			if (sameSupport && q.Support != p.Support) || len(q.Code) <= len(p.Code) {
				continue
			}
			if isomorph.SubgraphIsomorphic(p.Code.Graph(), q.Code.Graph()) {
				kept = false
				break
			}
		}
		if kept {
			out = append(out, p)
		}
	}
	return out
}

// TestClosedOnlyMatchesOracleFSG checks fsg's ClosedOnly contract
// differentially against the VF2 oracle over random databases: same
// graphs, supports, TID lists, and order as filtering the full mine,
// for the closed patterns and for the Maximal list.
func TestClosedOnlyMatchesOracleFSG(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r, 3+r.Intn(4), 6, 2, 2)
		full := Mine(db, Options{MinSupport: 2})
		closed := Mine(db, Options{MinSupport: 2, ClosedOnly: true})
		if full.Truncated || closed.Truncated {
			t.Fatalf("seed %d: unexpected truncation", seed)
		}
		want := oracleUndominated(full.Patterns, true)
		if len(closed.Patterns) != len(want) {
			t.Fatalf("seed %d: %d closed patterns, oracle says %d", seed, len(closed.Patterns), len(want))
		}
		for i := range want {
			if g, w := fsgSig(closed.Patterns[i]), fsgSig(want[i]); g != w {
				t.Fatalf("seed %d: pattern %d = %s, oracle %s", seed, i, g, w)
			}
		}
		// The pipeline's load-bearing property: the closed mine's
		// Maximal list is byte-identical to maximality over everything.
		mc, mf := closed.Maximal, oracleUndominated(full.Patterns, false)
		if len(mc) != len(mf) {
			t.Fatalf("seed %d: closed mine's Maximal has %d patterns, maximal(full) %d", seed, len(mc), len(mf))
		}
		for i := range mf {
			if fsgSig(mc[i]) != fsgSig(mf[i]) {
				t.Fatalf("seed %d: maximal sets diverge at %d", seed, i)
			}
		}
	}
}

// TestFrequentEdgeEmbeddings pins the level-1 embedding lists the
// incremental grower builds on: a same-label edge is realized by both
// orientations, a distinct-label edge by exactly the label-matching
// one, and entries stay grouped by gid in ascending order.
func TestFrequentEdgeEmbeddings(t *testing.T) {
	db := []*graph.Graph{
		build([]graph.Label{1, 1, 2}, [][3]int{{0, 1, 0}, {1, 2, 0}}),
		build([]graph.Label{1, 2}, [][3]int{{0, 1, 0}}),
	}
	gr := growerPool.New().(*grower)
	gr.db, gr.opt = db, Options{MinSupport: 1}
	gr.frequentEdges()
	level := gr.levels[0]
	byCanon := map[string]*embList{}
	for i := range level {
		r := &level[i]
		// Each row's TID list is exactly the graphs its embeddings lie in.
		gids := slices.Compact(slices.Clone(r.embs.gids))
		if !slices.Equal(gids, r.tids) {
			t.Errorf("row %d: TID list %v, embeddings in graphs %v", i, r.tids, gids)
		}
		byCanon[dfscode.Canonical(gr.spell(nil, 0, i).Graph())] = &r.embs
	}
	for canon, el := range byCanon {
		if !sort.IntsAreSorted(el.gids) {
			t.Errorf("%s: gids %v not ascending", canon, el.gids)
		}
		if len(el.flat) != el.len()*el.stride {
			t.Errorf("%s: flat length %d, want %d", canon, len(el.flat), el.len()*el.stride)
		}
	}
	// Edge 1(a)-1(a): one host edge in graph 0, both orientations.
	same := byCanon[dfscode.Canonical(build([]graph.Label{1, 1}, [][3]int{{0, 1, 0}}))]
	if same == nil || same.len() != 2 {
		t.Fatalf("same-label edge: embeddings %+v, want both orientations", same)
	}
	if n0, n1 := same.nodes(0), same.nodes(1); n0[0] != n1[1] || n0[1] != n1[0] {
		t.Errorf("same-label orientations %v and %v are not mirrored", n0, n1)
	}
	// Edge 1(a)-2(b): one orientation each in graphs 0 and 1, a-side first.
	mixed := byCanon[dfscode.Canonical(build([]graph.Label{1, 2}, [][3]int{{0, 1, 0}}))]
	if mixed == nil || mixed.len() != 2 {
		t.Fatalf("mixed-label edge: embeddings %+v, want one per graph", mixed)
	}
	for i := 0; i < mixed.len(); i++ {
		gid, n := mixed.gids[i], mixed.nodes(i)
		if db[gid].NodeLabel(n[0]) != 1 || db[gid].NodeLabel(n[1]) != 2 {
			t.Errorf("mixed-label embedding %d maps labels (%d,%d), want (1,2)",
				i, db[gid].NodeLabel(n[0]), db[gid].NodeLabel(n[1]))
		}
	}
}

package fsg

import (
	"math/rand"
	"slices"
	"sync"
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
	if p.Support != 2 || len(p.Code) != 1 {
		t.Errorf("pattern = %+v", p)
	}
	if len(res.Levels) != 1 || res.Levels[0] != 1 {
		t.Errorf("levels = %v; want [1]", res.Levels)
	}
}

// mapFrequentEdges is level 1 the way the miner used to build it, kept
// as the oracle for frequentEdges: a map from label triple to its TID
// list and embedding count, sorted triples, then a second pass over the
// edges filling the embedding lists.
func mapFrequentEdges(db []*graph.Graph, minSup int) []row {
	type edgeStat struct {
		tids []int
		embs int
		row  int
	}
	byKey := map[[3]graph.Label]*edgeStat{}
	for gid, g := range db {
		for _, e := range g.Edges() {
			lu, lv := g.NodeLabel(e.From), g.NodeLabel(e.To)
			key := [3]graph.Label{min(lu, lv), e.Label, max(lu, lv)}
			st, ok := byKey[key]
			if !ok {
				st = &edgeStat{row: -1}
				byKey[key] = st
			}
			st.embs++
			if lu == lv {
				st.embs++
			}
			if n := len(st.tids); n == 0 || st.tids[n-1] != gid {
				st.tids = append(st.tids, gid)
			}
		}
	}
	var keys [][3]graph.Label
	for k, st := range byKey {
		if len(st.tids) >= minSup {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b [3]graph.Label) int { return slices.Compare(a[:], b[:]) })
	var arena intArena
	level := make([]row, len(keys))
	for i, k := range keys {
		st := byKey[k]
		st.row = i
		last := dfscode.EdgeCode{I: 0, J: 1, LI: k[0], LE: k[1], LJ: k[2]}
		level[i] = newRow(&arena, -1, last, st.tids, 2, st.embs)
	}
	for gid, g := range db {
		for _, e := range g.Edges() {
			lu, lv := g.NodeLabel(e.From), g.NodeLabel(e.To)
			a, b := min(lu, lv), max(lu, lv)
			st := byKey[[3]graph.Label{a, e.Label, b}]
			if st.row < 0 {
				continue
			}
			el := &level[st.row].embs
			if lu == a && lv == b {
				el.gids = append(el.gids, gid)
				el.flat = append(el.flat, e.From, e.To)
			}
			if lv == a && lu == b {
				el.gids = append(el.gids, gid)
				el.flat = append(el.flat, e.To, e.From)
			}
		}
	}
	return level
}

// TestFrequentEdgesMatchMapVersion checks the sorted-record level 1
// against mapFrequentEdges on random databases, narrow and wide label
// alphabets, at several supports, on one reused grower: the same rows
// in (a, e, b) order with the same TID lists and the same embedding
// lists in the same order.
func TestFrequentEdgesMatchMapVersion(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	gr := growerPool.New().(*grower)
	for trial := 0; trial < 200; trial++ {
		var db []*graph.Graph
		if trial%4 == 3 {
			db = wideDB(r, 1+r.Intn(8))
		} else {
			db = randDB(r, 1+r.Intn(8), 2+r.Intn(9), 1+r.Intn(3), 1+r.Intn(3))
		}
		minSup := 1 + r.Intn(len(db))
		want := mapFrequentEdges(db, minSup)
		gr.db, gr.opt = db, Options{MinSupport: minSup}
		gr.frequentEdges()
		got := gr.levels[0]
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d level-1 rows, want %d", trial, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.parent != w.parent || g.last != w.last || !slices.Equal(g.tids, w.tids) ||
				g.embs.stride != w.embs.stride || !slices.Equal(g.embs.gids, w.embs.gids) || !slices.Equal(g.embs.flat, w.embs.flat) {
				t.Fatalf("trial %d row %d: got %+v, want %+v", trial, i, g, w)
			}
		}
		gr.release()
	}
}

func TestMineGrowsLevels(t *testing.T) {
	path := build([]graph.Label{1, 2, 3}, [][3]int{{0, 1, 0}, {1, 2, 0}})
	db := []*graph.Graph{path, path.Clone(), path.Clone()}
	res := Mine(db, Options{MinSupport: 3})
	// Patterns: edges 1-2, 2-3, and the path; all with support 3.
	if len(res.Patterns) != 3 {
		for _, p := range res.Patterns {
			t.Logf("%s sup=%d", p.Code.Graph(), p.Support)
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
		if len(p.Code) == 2 {
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
			a[dfscode.Canonical(p.Code.Graph())] = p.Support
		}
		b := map[string]int{}
		for _, p := range gspanRes.Patterns {
			b[dfscode.Canonical(p.Code.Graph())] = p.Support
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
	res := maximalOf(t, Mine(db, Options{MinSupport: 3, ClosedOnly: true}))
	if len(res.Patterns) != 1 {
		t.Fatalf("got %d maximal patterns; want 1", len(res.Patterns))
	}
	if len(res.Patterns[0].Code) != 2 {
		t.Errorf("maximal = %s; want full path", res.Patterns[0].Code.Graph())
	}
}

func TestMaximalMineHighThresholdFiltersNoise(t *testing.T) {
	// Three graphs share a triangle; one has extra noise. At 100%
	// support the maximal pattern is exactly the triangle.
	tri := [][3]int{{0, 1, 0}, {1, 2, 0}, {0, 2, 0}}
	g1 := build([]graph.Label{1, 2, 3}, tri)
	g2 := build([]graph.Label{1, 2, 3, 9}, append(append([][3]int{}, tri...), [3]int{2, 3, 1}))
	g3 := build([]graph.Label{1, 2, 3, 8}, append(append([][3]int{}, tri...), [3]int{0, 3, 1}))
	res := maximalOf(t, Mine([]*graph.Graph{g1, g2, g3}, Options{MinSupport: 3, ClosedOnly: true}))
	if len(res.Patterns) != 1 {
		for _, p := range res.Patterns {
			t.Logf("%s sup=%d", p.Code.Graph(), p.Support)
		}
		t.Fatalf("got %d maximal; want 1", len(res.Patterns))
	}
	if len(res.Patterns[0].Code) != 3 || res.Patterns[0].Support != 3 {
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
		if len(p.Code) >= 2 {
			survivors++
		}
	}
	if res.CandidatesGenerated < survivors {
		t.Errorf("candidates %d < survivors %d", res.CandidatesGenerated, survivors)
	}
}

// TestPooledGrowerKeepsNothing runs two mines on one grower, releasing
// it after each the way Mine does: the release leaves no reference into
// the mine — inputs, controller, rows of any level, keys — and the
// first mine's patterns survive the second mine reusing the buffers.
func TestPooledGrowerKeepsNothing(t *testing.T) {
	gr := growerPool.New().(*grower)
	r := rand.New(rand.NewSource(3))
	opt := Options{MinSupport: 2, Ctl: runctl.New(runctl.Options{})}
	first := gr.mine(randDB(r, 6, 8, 2, 2), opt)
	gr.release()
	want := make([]string, len(first.Patterns))
	for i, p := range first.Patterns {
		want[i] = fsgSig(p)
	}
	if len(want) == 0 {
		t.Fatal("first mine found no patterns")
	}
	gr.mine(randDB(r, 6, 8, 2, 2), opt)
	gr.release()
	if gr.db != nil || gr.opt != (Options{}) || gr.cp != nil || gr.cpEmb != nil || gr.minChecks != nil {
		t.Fatalf("released grower holds its inputs: db %v, opt %+v, checkpoints %v %v, counter %v", gr.db, gr.opt, gr.cp, gr.cpEmb, gr.minChecks)
	}
	if len(gr.levels) != 0 || gr.keyIdx.Len() != 0 || len(gr.keys) != 0 || len(gr.gens) != 0 {
		t.Fatalf("released grower holds %d levels, %d indexed keys, %d keys, %d generators", len(gr.levels), gr.keyIdx.Len(), len(gr.keys), len(gr.gens))
	}
	requireZeroRows(t, gr, "after the second mine")
	for i, p := range first.Patterns {
		if got := fsgSig(p); got != want[i] {
			t.Fatalf("pattern %d of the first mine changed after the second: %s, was %s", i, got, want[i])
		}
	}
}

// requireZeroRows fails unless every row of every level the grower has
// ever held, up to each level's capacity, is the zero row.
func requireZeroRows(t *testing.T, gr *grower, when string) {
	t.Helper()
	for d, lv := range gr.levels[:cap(gr.levels)] {
		for i, r := range lv[:cap(lv)] {
			if r.parent != 0 || r.last != (dfscode.EdgeCode{}) || r.tids != nil || r.embs.stride != 0 || r.embs.gids != nil || r.embs.flat != nil {
				t.Fatalf("%s: level %d row %d of %d is not zero: %+v", when, d+1, i, cap(lv), r)
			}
		}
	}
}

// TestPooledGrowerLargeThenSmall runs a large mine and then a small one
// on one grower. Release clears each level only up to its length, so
// this checks that a mine leaves no row past that length: after each
// release every row up to each level's capacity is zero. The small
// mine must also answer exactly as on a fresh grower.
func TestPooledGrowerLargeThenSmall(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	large, small := randDB(r, 12, 10, 2, 2), randDB(r, 4, 5, 2, 2)
	for _, closed := range []bool{false, true} {
		opt := Options{MinSupport: 2, ClosedOnly: closed, Ctl: runctl.New(runctl.Options{})}
		gr := growerPool.New().(*grower)
		big := gr.mine(large, opt)
		gr.release()
		requireZeroRows(t, gr, "after the large mine")
		got := gr.mine(small, opt)
		gr.release()
		requireZeroRows(t, gr, "after the small mine")

		fresh := growerPool.New().(*grower)
		want := fresh.mine(small, opt)
		fresh.release()
		if len(big.Levels) <= len(want.Levels) || len(big.Patterns) <= len(want.Patterns) {
			t.Fatalf("closed %v: large mine (%d levels, %d patterns) is not larger than the small one (%d, %d)",
				closed, len(big.Levels), len(big.Patterns), len(want.Levels), len(want.Patterns))
		}
		if !slices.Equal(got.Levels, want.Levels) || got.CandidatesGenerated != want.CandidatesGenerated {
			t.Fatalf("closed %v: reused grower levels %v, %d candidates; fresh %v, %d",
				closed, got.Levels, got.CandidatesGenerated, want.Levels, want.CandidatesGenerated)
		}
		for _, l := range []struct {
			what      string
			got, want []dfscode.Pattern
		}{{"patterns", got.Patterns, want.Patterns}, {"maximal", got.Maximal, want.Maximal}} {
			if len(l.got) != len(l.want) {
				t.Fatalf("closed %v: reused grower has %d %s, fresh %d", closed, len(l.got), l.what, len(l.want))
			}
			for i := range l.want {
				if g, w := fsgSig(l.got[i]), fsgSig(l.want[i]); g != w {
					t.Fatalf("closed %v: %s %d on the reused grower %s, fresh %s", closed, l.what, i, g, w)
				}
			}
		}
	}
}

// TestConcurrentMinesMatchSequential runs mines from several goroutines
// at once, as GraphSig's group workers do, so growers pass between
// them through the pool: each result must equal the same mine run
// alone.
func TestConcurrentMinesMatchSequential(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	const mines = 8
	dbs := make([][]*graph.Graph, mines)
	want := make([][]string, mines)
	for i := range dbs {
		dbs[i] = randDB(r, 5, 9, 2, 2)
		for _, p := range Mine(dbs[i], Options{MinSupport: 2, ClosedOnly: i%2 == 0}).Patterns {
			want[i] = append(want[i], fsgSig(p))
		}
	}
	got := make([][]string, mines)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < mines*4; i += 4 {
				m := i % mines
				var sigs []string
				for _, p := range Mine(dbs[m], Options{MinSupport: 2, ClosedOnly: m%2 == 0}).Patterns {
					sigs = append(sigs, fsgSig(p))
				}
				if i < mines {
					got[m] = sigs
				} else if !slices.Equal(sigs, want[m]) {
					t.Errorf("mine %d, round %d: concurrent result differs from the sequential one", m, i/mines)
				}
			}
		}(w)
	}
	wg.Wait()
	for m := range got {
		if !slices.Equal(got[m], want[m]) {
			t.Errorf("mine %d: concurrent result differs from the sequential one", m)
		}
	}
}

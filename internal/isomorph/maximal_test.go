package isomorph_test

import (
	"math/rand"
	"slices"
	"testing"

	"graphsig/internal/fsg"
	"graphsig/internal/graph"
	"graphsig/internal/gspan"
	"graphsig/internal/isomorph"
	"graphsig/internal/runctl"
)

// sweepInput mines every frequent pattern (not just the closed ones, so
// the sweep has real containments to find) of a small random database.
func sweepInput(t *testing.T) ([]fsg.Pattern, []gspan.Pattern) {
	r := rand.New(rand.NewSource(5))
	db := make([]*graph.Graph, 6)
	for i := range db {
		n := 5 + r.Intn(3)
		g := graph.New(n, n+1)
		for v := 0; v < n; v++ {
			g.AddNode(graph.Label(r.Intn(2)))
		}
		for v := 1; v < n; v++ {
			g.MustAddEdge(r.Intn(v), v, graph.Label(r.Intn(2)))
		}
		if u, v := r.Intn(n), r.Intn(n); u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, 0)
		}
		db[i] = g
	}
	res := fsg.Mine(db, fsg.Options{MinSupport: 2})
	if res.Truncated || len(res.Patterns) < 20 {
		t.Fatalf("sweep input: %d patterns, truncated=%v", len(res.Patterns), res.Truncated)
	}
	gs := make([]gspan.Pattern, len(res.Patterns))
	for i, p := range res.Patterns {
		gs[i] = gspan.Pattern{Graph: p.Graph, Support: p.Support, GraphIDs: p.GraphIDs}
	}
	return res.Patterns, gs
}

// TestMaximalTruncatesToDecidedPrefix trips the controller at every
// checkpoint of the sweep in turn. Each tripped sweep must return the
// stop cause and only patterns maximal within the full list, and the
// fsg and gspan adapters must keep the same patterns.
func TestMaximalTruncatesToDecidedPrefix(t *testing.T) {
	fp, gp := sweepInput(t)
	graphs := make([]*graph.Graph, len(fp))
	tids := make([][]int, len(fp))
	for i, p := range fp {
		graphs[i], tids[i] = p.Graph, p.GraphIDs
	}

	var checks int64
	count := runctl.New(runctl.Options{CheckInterval: 1, Hook: func(n int64) bool { checks = n; return false }})
	full, err := isomorph.Maximal(graphs, tids, count.Checkpoint(runctl.StageFSG), "fsg")
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 || len(full) == len(graphs) {
		t.Fatalf("sweep keeps %d of %d patterns; want a non-trivial filter", len(full), len(graphs))
	}

	partial := 0
	for trip := int64(1); trip <= checks; trip++ {
		ctlFor := func() *runctl.Controller {
			return runctl.New(runctl.Options{CheckInterval: 1, Hook: func(n int64) bool { return n >= trip }})
		}
		ctl := ctlFor()
		keep, err := isomorph.Maximal(graphs, tids, ctl.Checkpoint(runctl.StageFSG), "fsg")
		if err == nil || err != ctl.Err() || runctl.ReasonOf(err) != runctl.ReasonCancel {
			t.Fatalf("trip %d: err %v, want the controller's stop cause %v", trip, err, ctl.Err())
		}
		for _, i := range keep {
			if !slices.Contains(full, i) {
				t.Fatalf("trip %d: kept pattern %d is not maximal in the full list", trip, i)
			}
		}
		if !slices.Equal(keep, full[:len(keep)]) {
			t.Fatalf("trip %d: kept %v, not a prefix of %v", trip, keep, full)
		}
		if len(keep) > 0 && len(keep) < len(full) {
			partial++
		}

		fk, ferr := fsg.Maximal(fp, ctlFor().Checkpoint(runctl.StageFSG))
		gk, gerr := gspan.Maximal(gp, ctlFor().Checkpoint(runctl.StageGSpan))
		if ferr == nil || gerr == nil || len(fk) != len(keep) || len(gk) != len(keep) {
			t.Fatalf("trip %d: fsg kept %d (%v), gspan %d (%v), sweep %d", trip, len(fk), ferr, len(gk), gerr, len(keep))
		}
		for k, i := range keep {
			if fk[k].Graph != graphs[i] || gk[k].Graph != graphs[i] {
				t.Fatalf("trip %d: adapters disagree with the sweep at %d", trip, k)
			}
		}
	}
	if partial == 0 {
		t.Fatal("no trip point cut the sweep between its first and last kept pattern")
	}
}

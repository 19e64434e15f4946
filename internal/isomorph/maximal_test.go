package isomorph_test

import (
	"math/rand"
	"slices"
	"testing"

	"graphsig/internal/dfscode"
	"graphsig/internal/fsg"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
	"graphsig/internal/runctl"
)

// sweepInput mines every frequent pattern (not just the closed ones, so
// the sweep has real containments to find) of a small random database.
func sweepInput(t *testing.T) []dfscode.Pattern {
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
	return res.Patterns
}

// graphsOf lists the patterns' graphs, which identify them: the sweep
// passes the patterns it keeps through unchanged.
func graphsOf(patterns []dfscode.Pattern) []*graph.Graph {
	out := make([]*graph.Graph, len(patterns))
	for i, p := range patterns {
		out[i] = p.Graph
	}
	return out
}

// TestMaximalTruncatesToDecidedPrefix trips the controller at every
// checkpoint of the sweep in turn. Each tripped sweep must return the
// stop cause and only patterns maximal within the full list, and the
// sweep must keep the same patterns under either miner's checkpoint
// stage and site label.
func TestMaximalTruncatesToDecidedPrefix(t *testing.T) {
	patterns := sweepInput(t)

	var checks int64
	count := runctl.New(runctl.Options{CheckInterval: 1, Hook: func(n int64) bool { checks = n; return false }})
	kept, err := isomorph.Maximal(patterns, count.Checkpoint(runctl.StageFSG), "fsg")
	if err != nil {
		t.Fatal(err)
	}
	full := graphsOf(kept)
	if len(full) < 2 || len(full) == len(patterns) {
		t.Fatalf("sweep keeps %d of %d patterns; want a non-trivial filter", len(full), len(patterns))
	}

	partial := 0
	for trip := int64(1); trip <= checks; trip++ {
		ctlFor := func() *runctl.Controller {
			return runctl.New(runctl.Options{CheckInterval: 1, Hook: func(n int64) bool { return n >= trip }})
		}
		ctl := ctlFor()
		kept, err := isomorph.Maximal(patterns, ctl.Checkpoint(runctl.StageFSG), "fsg")
		if err == nil || err != ctl.Err() || runctl.ReasonOf(err) != runctl.ReasonCancel {
			t.Fatalf("trip %d: err %v, want the controller's stop cause %v", trip, err, ctl.Err())
		}
		keep := graphsOf(kept)
		for i, g := range keep {
			if !slices.Contains(full, g) {
				t.Fatalf("trip %d: kept pattern %d is not maximal in the full list", trip, i)
			}
		}
		if !slices.Equal(keep, full[:len(keep)]) {
			t.Fatalf("trip %d: kept %d patterns, not a prefix of the %d maximal ones", trip, len(keep), len(full))
		}
		if len(keep) > 0 && len(keep) < len(full) {
			partial++
		}

		gk, gerr := isomorph.Maximal(patterns, ctlFor().Checkpoint(runctl.StageGSpan), "gspan")
		if gerr == nil || len(gk) != len(keep) {
			t.Fatalf("trip %d: gspan stage kept %d (%v), fsg stage %d", trip, len(gk), gerr, len(keep))
		}
		if !slices.Equal(graphsOf(gk), keep) {
			t.Fatalf("trip %d: the gspan stage's sweep disagrees with the fsg stage's", trip)
		}
	}
	if partial == 0 {
		t.Fatal("no trip point cut the sweep between its first and last kept pattern")
	}
}

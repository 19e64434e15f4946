package gspan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// patternSig renders a pattern byte-comparably: canonical graph key,
// support, and TID list.
func patternSig(p dfscode.Pattern) string {
	return fmt.Sprintf("%s|%d|%v", dfscode.Canonical(p.Code.Graph()), p.Support, p.GraphIDs)
}

// diffPatternLists checks that two lists of mined patterns match byte
// for byte, and that every pattern in either carries its minimum code.
func diffPatternLists(t *testing.T, label string, got, want []dfscode.Pattern) {
	t.Helper()
	for _, p := range append(slices.Clip(got), want...) {
		if min := dfscode.MinimumCode(p.Code.Graph()); !slices.Equal(p.Code, min) {
			t.Fatalf("%s: pattern carries code %s, minimum code %s", label, p.Code, min)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns, want %d", label, len(got), len(want))
	}
	for i := range want {
		if g, w := patternSig(got[i]), patternSig(want[i]); g != w {
			t.Fatalf("%s: pattern %d = %s, want %s", label, i, g, w)
		}
	}
}

// TestClosedOnlyMatchesOracle checks the ClosedOnly contract
// differentially: the closed mine's output must be byte-identical —
// graphs, supports, TID lists, order — to the oracle sweep Closed()
// over the unfiltered mine, and its Maximal list to the oracle sweep
// Maximal() over it, across random databases. MaxEdges-capped runs are
// included: at-cap patterns have no in-universe witness (a witness
// needs more edges than the cap), so the contract holds there too even
// though the miner emits the boundary unconditionally and lists it as
// maximal.
func TestClosedOnlyMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r, 3+r.Intn(4), 6, 2, 2, 2)
		for _, maxEdges := range []int{0, 3} {
			opt := Options{MinSupport: 2, MaxEdges: maxEdges}
			full := Mine(db, opt)
			opt.ClosedOnly = true
			closed := Mine(db, opt)
			if full.Truncated || closed.Truncated {
				t.Fatalf("seed %d: unexpected truncation", seed)
			}
			label := fmt.Sprintf("seed %d maxEdges %d", seed, maxEdges)
			diffPatternLists(t, label, closed.Patterns, Closed(full.Patterns))
			diffPatternLists(t, label+" maximal", maximalOf(t, closed), Maximal(full.Patterns))
			if closed.Stats.StatesExplored > full.Stats.StatesExplored {
				t.Fatalf("%s: closed mine explored %d states, full mine only %d",
					label, closed.Stats.StatesExplored, full.Stats.StatesExplored)
			}
		}
	}
}

// TestClosedOnlyPreservesMaximal is the property the pipeline rests on:
// the closed output contains every maximal pattern, the closed mine's
// Maximal list is byte-identical to the maximality oracle over the full
// output, and the oracle closure sweep over the closed output is a
// no-op.
func TestClosedOnlyPreservesMaximal(t *testing.T) {
	for seed := int64(100); seed < 120; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r, 3+r.Intn(4), 6, 2, 2, 2)
		full := Mine(db, Options{MinSupport: 2})
		closed := Mine(db, Options{MinSupport: 2, ClosedOnly: true})

		label := fmt.Sprintf("seed %d", seed)
		diffPatternLists(t, label+" maximal", maximalOf(t, closed), Maximal(full.Patterns))
		diffPatternLists(t, label+" closure no-op", Closed(closed.Patterns), closed.Patterns)

		inClosed := map[string]bool{}
		for _, p := range closed.Patterns {
			inClosed[patternSig(p)] = true
		}
		for _, p := range Maximal(full.Patterns) {
			if !inClosed[patternSig(p)] {
				t.Fatalf("%s: maximal pattern %s missing from closed output", label, patternSig(p))
			}
		}
	}
}

// TestEquivalentOccurrencePruning feeds the miner a database where a
// non-rightmost internal extension (the diamond chord) is realized by
// every occurrence of its parent state, so the DFS subtree must be cut:
// strictly fewer states explored than the full mine, with the prune and
// equivalent-occurrence counters visibly nonzero — while the output
// still matches the oracle.
func TestEquivalentOccurrencePruning(t *testing.T) {
	diamond := func() *graph.Graph {
		// Square 0-1-2-3 with chord 0-2 and a pendant tail off node 3.
		return build([]graph.Label{1, 2, 3, 4, 5},
			[][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 0, 0}, {0, 2, 0}, {3, 4, 0}})
	}
	db := []*graph.Graph{diamond(), diamond(), diamond()}

	full := Mine(db, Options{MinSupport: 3})
	reg := obs.NewRegistry()
	ctl := runctl.New(runctl.Options{Metrics: reg})
	closed := Mine(db, Options{MinSupport: 3, ClosedOnly: true, Ctl: ctl})

	diffPatternLists(t, "diamond", closed.Patterns, Closed(full.Patterns))
	if closed.Stats.StatesExplored >= full.Stats.StatesExplored {
		t.Errorf("closed mine explored %d states, want fewer than full mine's %d",
			closed.Stats.StatesExplored, full.Stats.StatesExplored)
	}
	snap := reg.Snapshot()
	if n := snap.CounterValue(obs.MClosedPrunes, "miner", "gspan"); n == 0 {
		t.Error("closed-prune counter is zero")
	}
	if n := snap.CounterValue(obs.MEquivOccurrences, "miner", "gspan"); n == 0 {
		t.Error("equivalent-occurrence counter is zero")
	}
}

// dbFromBytes decodes a fuzz payload into a small graph database: a
// graph count, then per graph a node count with labels and edge triples
// drawn from the remaining bytes. Invalid edges (self-loops,
// duplicates) are skipped, so every byte string decodes.
func dbFromBytes(data []byte) []*graph.Graph {
	if len(data) < 2 {
		return nil
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	count := 2 + int(next())%3
	var db []*graph.Graph
	for gi := 0; gi < count; gi++ {
		n := 2 + int(next())%5
		g := graph.New(n, 2*n)
		for v := 0; v < n; v++ {
			g.AddNode(graph.Label(int(next()) % 3))
		}
		edges := 1 + int(next())%(2*n)
		for e := 0; e < edges; e++ {
			b := next()
			u, v := int(b)%n, int(b>>3)%n
			if u == v {
				continue
			}
			g.AddEdge(u, v, graph.Label(int(next())%2)) //nolint:errcheck // duplicate edges are skipped by design
		}
		db = append(db, g)
	}
	return db
}

// FuzzClosedEquivalence fuzzes the differential contract: on arbitrary
// small databases, ClosedOnly mining must equal the oracle closure
// sweep over the unfiltered mine, and its Maximal list the oracle
// maximality sweep, byte for byte.
func FuzzClosedEquivalence(f *testing.F) {
	f.Add([]byte{2, 3, 1, 0, 2, 4, 5, 1, 9, 3, 0, 1, 2, 7, 7})
	f.Add([]byte{0, 4, 0, 0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	// Three 5-node paths at MinSupport 2, the third with a foreign label
	// in the middle: the first two share a frequent 4-edge path, so the
	// closed-only mine reaches the MaxEdges cap from this first input.
	path := []byte{3, 0, 0, 0, 0, 0, 3, 10, 0, 16, 0, 27, 0, 33, 0}
	broken := slices.Clone(path)
	broken[3] = 1
	f.Add(slices.Concat([]byte{1}, path, path, broken))
	f.Fuzz(func(t *testing.T, data []byte) {
		db := dbFromBytes(data)
		if db == nil {
			t.Skip()
		}
		minSup := 1 + int(data[0])%len(db)
		// MaxEdges bounds the pattern lattice so adversarial inputs
		// (dense same-label graphs) stay cheap.
		full := Mine(db, Options{MinSupport: minSup, MaxEdges: 4})
		closed := Mine(db, Options{MinSupport: minSup, MaxEdges: 4, ClosedOnly: true})
		diffPatternLists(t, "fuzz", closed.Patterns, Closed(full.Patterns))
		diffPatternLists(t, "fuzz maximal", maximalOf(t, closed), Maximal(full.Patterns))
	})
}

// isSubsequenceByCode reports whether part's codes occur in whole's, in
// the same order.
func isSubsequenceByCode(part, whole []dfscode.Pattern) bool {
	j := 0
	for _, p := range part {
		for j < len(whole) && !slices.Equal(whole[j].Code, p.Code) {
			j++
		}
		if j == len(whole) {
			return false
		}
		j++
	}
	return true
}

// TestMaximalTruncatesToDecidedPrefix trips a closed-only mine of a
// random database at every checkpoint in turn. Each tripped mine must
// report the controller's stop cause, and its Maximal list must be an
// order-preserving subsequence, by code, of the untruncated mine's: a
// state is emitted only once its projection walk has finished.
func TestMaximalTruncatesToDecidedPrefix(t *testing.T) {
	db := randDB(rand.New(rand.NewSource(5)), 10, 8, 3, 2, 2)
	opt := Options{MinSupport: 2, ClosedOnly: true}
	var checks int64
	opt.Ctl = runctl.New(runctl.Options{CheckInterval: 1, Hook: func(n int64) bool { checks = n; return false }})
	full := Mine(db, opt)
	if full.Truncated {
		t.Fatalf("untruncated mine stopped: %s", full.StopReason)
	}
	if len(full.Maximal) < 2 || len(full.Maximal) == len(full.Patterns) {
		t.Fatalf("%d of %d closed patterns are maximal; want a non-trivial filter", len(full.Maximal), len(full.Patterns))
	}

	partial := 0
	for trip := int64(1); trip <= checks; trip++ {
		ctl := runctl.New(runctl.Options{CheckInterval: 1, Hook: func(n int64) bool { return n >= trip }})
		opt.Ctl = ctl
		res := Mine(db, opt)
		if !res.Truncated || ctl.Err() == nil || res.StopReason != runctl.ReasonCancel {
			t.Fatalf("trip %d: truncated %v, reason %q, controller cause %v; want the hook's cancel", trip, res.Truncated, res.StopReason, ctl.Err())
		}
		if !isSubsequenceByCode(res.Maximal, full.Maximal) {
			t.Fatalf("trip %d: %d maximal patterns, not a subsequence of the %d untruncated ones", trip, len(res.Maximal), len(full.Maximal))
		}
		if len(res.Maximal) > 0 && len(res.Maximal) < len(full.Maximal) {
			partial++
		}
	}
	if partial == 0 {
		t.Fatal("no trip point cut the Maximal list between its first and last pattern")
	}
}

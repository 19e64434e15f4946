package fsg

import (
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
	"graphsig/internal/runctl"
)

// oracleMaxEdges bounds both the brute-force enumeration and the miner
// under test. Graphs from randDB can exceed it, so the MaxEdges cap
// path is exercised too.
const oracleMaxEdges = 6

// oraclePattern is one frequent pattern found by brute force.
type oraclePattern struct {
	canon string
	g     *graph.Graph
	gids  []int // ascending database indices, counted with VF2
}

// bruteFrequent enumerates every connected edge subset of at most
// maxEdges edges of every database graph, deduplicates the subgraphs by
// canonical code, counts each one's support by VF2 against the whole
// database, and returns the frequent ones ordered by (edges, code). No
// level-wise growth, embedding list or closure bookkeeping is involved,
// so it checks the miner end to end.
func bruteFrequent(db []*graph.Graph, minSup, maxEdges int) []oraclePattern {
	seen := map[string]*graph.Graph{}
	for _, g := range db {
		edges := g.Edges()
		for mask := uint(1); mask < 1<<len(edges); mask++ {
			if bits.OnesCount(mask) > maxEdges {
				continue
			}
			sub := edgeSubgraph(g, edges, mask)
			if !sub.IsConnected() {
				continue
			}
			if c := dfscode.Canonical(sub); seen[c] == nil {
				seen[c] = sub
			}
		}
	}
	var out []oraclePattern
	for c, sub := range seen {
		if gids := isomorph.SupportingIDs(sub, db); len(gids) >= minSup {
			out = append(out, oraclePattern{canon: c, g: sub, gids: gids})
		}
	}
	sort.Slice(out, func(i, j int) bool { return lessByLevel(out[i].g, out[j].g, out[i].canon, out[j].canon) })
	return out
}

// edgeSubgraph builds the subgraph of g spanned by the edges selected in
// mask, numbering nodes by first appearance.
func edgeSubgraph(g *graph.Graph, edges []graph.Edge, mask uint) *graph.Graph {
	sub := graph.New(0, bits.OnesCount(mask))
	index := map[int]int{}
	node := func(v int) int {
		if i, ok := index[v]; ok {
			return i
		}
		index[v] = sub.AddNode(g.NodeLabel(v))
		return index[v]
	}
	for i, e := range edges {
		if mask&(1<<i) != 0 {
			sub.MustAddEdge(node(e.From), node(e.To), e.Label)
		}
	}
	return sub
}

func lessByLevel(a, b *graph.Graph, ca, cb string) bool {
	if a.NumEdges() != b.NumEdges() {
		return a.NumEdges() < b.NumEdges()
	}
	return ca < cb
}

// oracleFilter keeps the patterns no other frequent pattern dominates: a
// strictly larger pattern containing it (VF2) and, when sameSupport is
// set, with equal support. Nothing in freq exceeds the edge cap, so the
// patterns at the cap are kept, as ClosedOnly documents.
func oracleFilter(freq []oraclePattern, sameSupport bool) []oraclePattern {
	var out []oraclePattern
	for _, p := range freq {
		kept := true
		for _, q := range freq {
			if q.g.NumEdges() <= p.g.NumEdges() || (sameSupport && len(q.gids) != len(p.gids)) {
				continue
			}
			if isomorph.SubgraphIsomorphic(p.g, q.g) {
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

// maximalOf returns a closed-only mine with its Maximal list in place
// of its patterns, after checking that the list is a subsequence of the
// patterns sharing their entries: the same graph and code slab, not a
// second spelling.
func maximalOf(t *testing.T, res Result) Result {
	t.Helper()
	j := 0
	for i, m := range res.Maximal {
		for j < len(res.Patterns) && res.Patterns[j].Graph != m.Graph {
			j++
		}
		if j == len(res.Patterns) || &res.Patterns[j].Code[0] != &m.Code[0] {
			t.Fatalf("maximal pattern %d does not share a pattern entry in emission order", i)
		}
	}
	res.Patterns = res.Maximal
	return res
}

// checkAgainstOracle compares fsg.Mine (full and ClosedOnly) and the
// closed-only mine's Maximal list with the brute-force answers: same
// canonical patterns, supports and TID lists, and level counts equal to
// the oracle's per-size counts.
func checkAgainstOracle(t *testing.T, db []*graph.Graph, minSup int) {
	t.Helper()
	freq := bruteFrequent(db, minSup, oracleMaxEdges)
	opt := Options{MinSupport: minSup, MaxEdges: oracleMaxEdges}

	full := Mine(db, opt)
	comparePatterns(t, "Mine", full, freq)
	if full.Maximal != nil {
		t.Fatalf("a full mine lists %d maximal patterns; only closed-only mines fill Maximal", len(full.Maximal))
	}
	var wantLevels []int
	for _, p := range freq {
		for len(wantLevels) < p.g.NumEdges() {
			wantLevels = append(wantLevels, 0)
		}
		wantLevels[len(wantLevels)-1]++
	}
	if len(full.Levels) != len(wantLevels) {
		t.Fatalf("Levels = %v, oracle %v", full.Levels, wantLevels)
	}
	for i := range wantLevels {
		if full.Levels[i] != wantLevels[i] {
			t.Fatalf("Levels = %v, oracle %v", full.Levels, wantLevels)
		}
	}

	closedOpt := opt
	closedOpt.ClosedOnly = true
	closed := Mine(db, closedOpt)
	comparePatterns(t, "ClosedOnly", closed, oracleFilter(freq, true))
	comparePatterns(t, "Maximal", maximalOf(t, closed), oracleFilter(freq, false))
}

// comparePatterns checks that the mine emitted its patterns level by
// level, each carrying its minimum code and the graph built from it,
// and that, ordered by (edges, code), they equal the oracle's.
func comparePatterns(t *testing.T, what string, res Result, want []oraclePattern) {
	t.Helper()
	if res.Truncated {
		t.Fatalf("%s: unexpected truncation (%s)", what, res.StopReason)
	}
	got := make([]oraclePattern, len(res.Patterns))
	for i, p := range res.Patterns {
		if i > 0 && p.Graph.NumEdges() < res.Patterns[i-1].Graph.NumEdges() {
			t.Fatalf("%s: pattern %d has %d edges after one with %d", what, i, p.Graph.NumEdges(), res.Patterns[i-1].Graph.NumEdges())
		}
		if p.Support != len(p.GraphIDs) {
			t.Fatalf("%s: pattern %d support %d, %d graph ids", what, i, p.Support, len(p.GraphIDs))
		}
		if want := dfscode.MinimumCode(p.Graph); !slices.Equal(p.Code, want) {
			t.Fatalf("%s: pattern %d carries code %s, minimum code %s", what, i, p.Code, want)
		}
		if cap(p.Code) != len(p.Code) {
			t.Fatalf("%s: pattern %d code has cap %d past its length %d; an append would overwrite a neighbour", what, i, cap(p.Code), len(p.Code))
		}
		if g := p.Code.Graph(); !slices.Equal(p.Graph.Labels(), g.Labels()) || !slices.Equal(p.Graph.Edges(), g.Edges()) {
			t.Fatalf("%s: pattern %d graph %v, its code builds %v", what, i, p.Graph, g)
		}
		got[i] = oraclePattern{canon: dfscode.Canonical(p.Graph), g: p.Graph, gids: p.GraphIDs}
	}
	sort.SliceStable(got, func(i, j int) bool { return lessByLevel(got[i].g, got[j].g, got[i].canon, got[j].canon) })
	if len(got) != len(want) {
		t.Fatalf("%s: %d patterns, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.canon != w.canon || !slices.Equal(g.gids, w.gids) {
			t.Fatalf("%s: pattern %d = %s %v, oracle %s %v", what, i, g.canon, g.gids, w.canon, w.gids)
		}
	}
}

// TestFSGMatchesBruteForceOracle runs the oracle comparison over tiny
// seeded databases: few labels, so symmetric patterns and repeated
// embeddings are common, and up to 8 edges per graph, past the cap.
func TestFSGMatchesBruteForceOracle(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r, 2+r.Intn(5), 3+r.Intn(5), 1+r.Intn(3), 1+r.Intn(2))
		minSup := 1 + r.Intn(3)
		t.Logf("seed %d: %d graphs, minSup %d", seed, len(db), minSup)
		checkAgainstOracle(t, db, minSup)
	}
}

// FuzzFSGOracle is the oracle comparison over fuzzer-chosen shapes:
// data[0] picks the database size and support threshold, data[1] the
// label alphabets, and the length the graph size.
func FuzzFSGOracle(f *testing.F) {
	f.Add([]byte{3, 0}, int64(1))
	f.Add([]byte{7, 5, 1, 1, 1}, int64(2))
	f.Add([]byte{2, 2, 9, 9, 9, 9, 9, 9}, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) < 2 || len(data) > 12 {
			return
		}
		r := rand.New(rand.NewSource(seed))
		db := randDB(r, 2+int(data[0])%5, 3+len(data)%5, 1+int(data[1])%3, 1+int(data[1]/3)%2)
		checkAgainstOracle(t, db, 1+int(data[0]/5)%3)
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

// TestMaximalTruncatesToDecidedPrefix trips a closed-only mine of an
// oracle database at every checkpoint in turn. Each tripped mine must
// report the controller's stop cause, and its Maximal list must be an
// order-preserving subsequence, by code, of the untruncated mine's: a
// truncated mine lists only the levels whose keys were all counted.
func TestMaximalTruncatesToDecidedPrefix(t *testing.T) {
	db := randDB(rand.New(rand.NewSource(5)), 8, 7, 3, 1)
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

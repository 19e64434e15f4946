package fsg

import (
	"math/rand"
	"slices"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// realizedKeys lists the one-edge growths of p realized in at least
// minSup graphs of db, found by VF2 embedding enumeration rather than
// the miner's embedding lists, in a fixed order.
func realizedKeys(db []*graph.Graph, p Pattern, minSup int) []isomorph.ExtKey {
	last := map[isomorph.ExtKey]int{}
	count := map[isomorph.ExtKey]int{}
	hasEdge := func(pv, pu int) bool { return p.Graph.HasEdge(pv, pu) }
	for _, gid := range p.GraphIDs {
		hc := db[gid].CSR()
		inv := make([]int32, db[gid].NumNodes())
		isomorph.ForEachEmbedding(p.Graph, db[gid], func(m []int) bool {
			isomorph.ForEachExtension(hc, m, inv, hasEdge, func(k isomorph.ExtKey, _ int32) {
				if n, seen := last[k]; !seen || n != gid+1 {
					last[k] = gid + 1
					count[k]++
				}
			})
			return true
		})
	}
	var keys []isomorph.ExtKey
	for k, n := range count {
		if n >= minSup {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b isomorph.ExtKey) int {
		if a.From != b.From {
			return int(a.From - b.From)
		}
		if a.To != b.To {
			return int(a.To - b.To)
		}
		return int(a.Label) - int(b.Label)
	})
	return keys
}

// checkGrowthInvariants mines db and checks the two invariants Phase 2
// rests on. Every pattern is canonically numbered: its code read off
// its graph with identity numbering is dfscode.MinimumCode of the
// graph. And each candidate is generated exactly once: over every
// parent of a grown level and every frequent key realized in it, the
// minimality checks that pass — one per new candidate — number exactly
// the distinct canonical forms of the grown graphs, which are the next
// level, and they add up to CandidatesGenerated. The checks themselves
// are what obs.MFSGMinChecks counts.
func checkGrowthInvariants(t *testing.T, db []*graph.Graph, opt Options) {
	t.Helper()
	reg := obs.NewRegistry()
	opt.Ctl = runctl.New(runctl.Options{Metrics: reg})
	res := Mine(db, opt)
	if res.Truncated {
		t.Fatalf("unexpected truncation (%s)", res.StopReason)
	}
	var (
		s      grower
		start  int
		passes int
		checks int64
	)
	for li, n := range res.Levels {
		level := res.Patterns[start : start+n]
		start += n
		for _, p := range level {
			s.setParent(p.Graph)
			if want := dfscode.MinimumCode(p.Graph); !slices.Equal(s.pcode, want) {
				t.Fatalf("level %d pattern %v reads as code %s, minimum code %s", li+1, p.Graph, s.pcode, want)
			}
		}
		if opt.MaxEdges > 0 && li+1 >= opt.MaxEdges {
			break // the capped level is emitted, not grown
		}
		forms := map[string]bool{}
		levelPasses := 0
		for _, p := range level {
			s.setParent(p.Graph)
			for _, k := range realizedKeys(db, p, opt.MinSupport) {
				forms[dfscode.Canonical(buildExtension(p.Graph, k))] = true
				checked, minimal := s.checkKey(p.Graph, k)
				if checked {
					checks++
				}
				if minimal {
					levelPasses++
				}
			}
		}
		next := 0
		if li+1 < len(res.Levels) {
			next = res.Levels[li+1]
		}
		if levelPasses != len(forms) || next != len(forms) {
			t.Fatalf("level %d: %d checks passed, %d distinct grown forms, next level holds %d", li+1, levelPasses, len(forms), next)
		}
		passes += levelPasses
	}
	if passes != res.CandidatesGenerated {
		t.Fatalf("%d minimality checks passed, CandidatesGenerated %d", passes, res.CandidatesGenerated)
	}
	if got := reg.Snapshot().CounterValue(obs.MFSGMinChecks, "miner", "fsg"); got != checks {
		t.Fatalf("%s = %d, want %d rightmost keys", obs.MFSGMinChecks, got, checks)
	}
}

// TestGrowthInvariantsOracleCorpora runs the invariant check over the
// brute-force oracle's tiny databases.
func TestGrowthInvariantsOracleCorpora(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		db := randDB(r, 2+r.Intn(5), 3+r.Intn(5), 1+r.Intn(3), 1+r.Intn(2))
		minSup := 1 + r.Intn(3)
		checkGrowthInvariants(t, db, Options{MinSupport: minSup, MaxEdges: oracleMaxEdges})
	}
}

// TestGrowthInvariantsMOLT4Windows runs the invariant check over
// radius-5 windows of synthetic MOLT-4 molecules, the region shape
// GraphSig mines maximal subgraphs in, uncapped. Support 2 of 10 grows
// levels of up to 14 edges with rings, so backward keys and forms with
// many generators are common.
func TestGrowthInvariantsMOLT4Windows(t *testing.T) {
	mols := chem.GenerateN(chem.CancerSpecs()[1], 10).Graphs
	var db []*graph.Graph
	for _, g := range mols {
		db = append(db, g.CutGraph(0, 5))
	}
	checkGrowthInvariants(t, db, Options{MinSupport: 2})
}

package fsg

import (
	"math/rand"
	"testing"

	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// motifDB plants one labeled ring-with-chord motif in every graph plus
// per-graph noise — the GraphSig workload shape, where every frequent
// subpattern of the motif shares its full support and only the motif
// itself (and noise survivors) is closed.
func motifDB(r *rand.Rand, count int) []*graph.Graph {
	db := make([]*graph.Graph, count)
	for i := range db {
		g := build([]graph.Label{1, 2, 3, 4, 5, 6},
			[][3]int{{0, 1, 0}, {1, 2, 0}, {2, 3, 0}, {3, 4, 0}, {4, 5, 0}, {5, 0, 0}, {0, 3, 1}})
		for n := 0; n < 3; n++ {
			v := g.AddNode(graph.Label(7 + r.Intn(2)))
			g.MustAddEdge(r.Intn(v), v, 0)
		}
		g.ID = i
		db[i] = g
	}
	return db
}

// BenchmarkMaximalFilter isolates the O(n²) containment sweep the
// miners run after pattern generation, on the full frequent set versus
// the closed set the ClosedOnly mine now hands it. pairs/op is the
// number of candidate containment pairs surviving the size screen,
// vf2/op how many of those reached VF2 search — the two costs the
// closed-pattern mine exists to shrink.
func BenchmarkMaximalFilter(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	db := motifDB(r, 30)
	for _, mode := range []struct {
		name   string
		closed bool
	}{{"full", false}, {"closed", true}} {
		res := Mine(db, Options{MinSupport: 24, ClosedOnly: mode.closed})
		if res.Truncated {
			b.Fatal("unexpected truncation")
		}
		b.Run(mode.name, func(b *testing.B) {
			reg := obs.NewRegistry()
			ctl := runctl.New(runctl.Options{Metrics: reg})
			b.ReportMetric(float64(len(res.Patterns)), "patterns")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := isomorph.Maximal(res.Patterns, ctl.Checkpoint(runctl.StageFSG), "fsg"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			snap := reg.Snapshot()
			b.ReportMetric(float64(snap.CounterValue(obs.MMaximalPairs, "site", "fsg"))/float64(b.N), "pairs/op")
			b.ReportMetric(float64(snap.CounterValue(obs.MPrefilterPasses, "site", "maximal"))/float64(b.N), "vf2/op")
		})
	}
}

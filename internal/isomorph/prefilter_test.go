package isomorph

import (
	"math/rand"
	"testing"

	"graphsig/internal/graph"
	"graphsig/internal/obs"
)

// TestCanContainNeverRejectsTrueEmbedding is the soundness property:
// whenever VF2 finds pattern in target, the summary check must pass.
func TestCanContainNeverRejectsTrueEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		target := randGraph(rng, 4+rng.Intn(8), rng.Intn(6), 3, 2)
		pattern := randGraph(rng, 2+rng.Intn(5), rng.Intn(3), 3, 2)
		embeds := SubgraphIsomorphic(pattern, target)
		canContain := Summarize(target).CanContain(Summarize(pattern))
		if embeds && !canContain {
			t.Fatalf("trial %d: summary rejected a pattern VF2 embeds (pattern %d nodes/%d edges, target %d/%d)",
				trial, pattern.NumNodes(), pattern.NumEdges(), target.NumNodes(), target.NumEdges())
		}
	}
}

// TestPrefilterSupportMatchesPlain checks the filtered support paths
// agree exactly with the unfiltered ones over random databases.
func TestPrefilterSupportMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		db := make([]*graph.Graph, 12)
		for i := range db {
			db[i] = randGraph(rng, 3+rng.Intn(8), rng.Intn(5), 3, 2)
		}
		pf := NewPrefilter(db)
		pattern := randGraph(rng, 2+rng.Intn(5), rng.Intn(3), 3, 2)

		sup, err := pf.SupportCtl(pattern, nil)
		if want := Support(pattern, db); err != nil || sup != want {
			t.Fatalf("trial %d: prefiltered support %d (%v), plain %d", trial, sup, err, want)
		}
		got, want := pf.SupportingIDs(pattern), SupportingIDs(pattern, db)
		if len(got) != len(want) {
			t.Fatalf("trial %d: supporting ids %v vs %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: supporting ids %v vs %v", trial, got, want)
			}
		}
	}
}

// TestCanContainRejects pins down each reject axis with a hand-built
// case: degree dominance, edge-triple counts, and true containment.
func TestCanContainRejects(t *testing.T) {
	// Target: path A-B-A (labels 0,1,0), edges labeled 0.
	target := graph.New(3, 2)
	target.AddNode(0)
	target.AddNode(1)
	target.AddNode(0)
	target.MustAddEdge(0, 1, 0)
	target.MustAddEdge(1, 2, 0)
	ts := Summarize(target)

	// Same path with nodes listed in a different order: containment is
	// order-independent, so it must pass.
	hub := graph.New(3, 2)
	hub.AddNode(0)
	hub.AddNode(0)
	hub.AddNode(1)
	hub.MustAddEdge(0, 2, 0)
	hub.MustAddEdge(1, 2, 0)
	if !ts.CanContain(Summarize(hub)) {
		t.Fatal("the path itself (relabeled order) must pass")
	}
	// Degree-2 node of label 0 — target's label-0 degrees are [1,1].
	wedge := graph.New(3, 2)
	wedge.AddNode(1)
	wedge.AddNode(1)
	wedge.AddNode(0)
	wedge.MustAddEdge(0, 2, 0)
	wedge.MustAddEdge(1, 2, 0)
	if ts.CanContain(Summarize(wedge)) {
		t.Fatal("degree dominance should reject a degree-2 label-0 hub against A-B-A")
	}

	// Edge labeled 1 where the target only has label-0 edges.
	relabeled := graph.New(2, 1)
	relabeled.AddNode(0)
	relabeled.AddNode(1)
	relabeled.MustAddEdge(0, 1, 1)
	if ts.CanContain(Summarize(relabeled)) {
		t.Fatal("edge-triple counts should reject an edge label absent from the target")
	}

	// The target trivially contains itself.
	if !ts.CanContain(ts) {
		t.Fatal("a summary must contain itself")
	}

	// Single A-B edge: genuinely contained, must pass.
	sub := graph.New(2, 1)
	sub.AddNode(0)
	sub.AddNode(1)
	sub.MustAddEdge(0, 1, 0)
	if !ts.CanContain(Summarize(sub)) {
		t.Fatal("a true subgraph's summary must pass")
	}
}

// TestPrefilterMeter checks reject/pass counters land in the registry
// under the site label.
func TestPrefilterMeter(t *testing.T) {
	target := graph.New(2, 1)
	target.AddNode(0)
	target.AddNode(1)
	target.MustAddEdge(0, 1, 0)

	big := graph.New(3, 3) // triangle: cannot fit in a single edge
	big.AddNode(0)
	big.AddNode(1)
	big.AddNode(2)
	big.MustAddEdge(0, 1, 0)
	big.MustAddEdge(1, 2, 0)
	big.MustAddEdge(2, 0, 0)

	reg := obs.NewRegistry()
	pf := NewPrefilter([]*graph.Graph{target}).Meter(reg, "test")
	if n, _ := pf.SupportCtl(big, nil); n != 0 {
		t.Fatalf("support of triangle in edge = %d, want 0", n)
	}
	if n, _ := pf.SupportCtl(target, nil); n != 1 {
		t.Fatalf("support of edge in itself = %d, want 1", n)
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue(obs.MPrefilterRejects, "site", "test"); got != 1 {
		t.Fatalf("rejects = %d, want 1", got)
	}
	if got := snap.CounterValue(obs.MPrefilterPasses, "site", "test"); got != 1 {
		t.Fatalf("passes = %d, want 1", got)
	}
}

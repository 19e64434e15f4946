package isomorph

import (
	"sort"
	"testing"

	"graphsig/internal/graph"
)

// TestForEachExtension embeds a 2-edge path pattern into a labeled host
// and checks the exact extension-key set: internal edges emitted once
// with From < To, pendant edges carrying the fresh node's label, and
// pattern edges and their images never reported.
func TestForEachExtension(t *testing.T) {
	// Pattern: 0(a)-1(b)-2(a), a path.
	pattern := build([]graph.Label{0, 1, 0}, [][3]int{{0, 1, 5}, {1, 2, 5}})
	// Host: same path 0-1-2, plus closing edge 2-0 (internal candidate)
	// and a pendant node 3(c) off host node 1.
	host := build([]graph.Label{0, 1, 0, 2}, [][3]int{{0, 1, 5}, {1, 2, 5}, {2, 0, 7}, {1, 3, 9}})

	nodes := []int{0, 1, 2} // identity embedding
	inv := make([]int32, host.NumNodes())
	var got []ExtKey
	hostTo := map[ExtKey]int32{}
	ForEachExtension(host.CSR(), nodes, inv, func(pv, pu int) bool {
		return pattern.EdgeLabel(pv, pu) != graph.NoLabel
	}, func(k ExtKey, hu int32) {
		got = append(got, k)
		hostTo[k] = hu
	})

	want := []ExtKey{
		{From: 0, To: 2, Label: 7},            // closing the triangle, once
		{From: 1, To: PendantTo(2), Label: 9}, // pendant c off pattern node 1
	}
	sortKeys := func(ks []ExtKey) {
		sort.Slice(ks, func(i, j int) bool {
			a, b := ks[i], ks[j]
			if a.From != b.From {
				return a.From < b.From
			}
			if a.To != b.To {
				return a.To < b.To
			}
			return a.Label < b.Label
		})
	}
	sortKeys(got)
	sortKeys(want)
	if len(got) != len(want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys = %v, want %v", got, want)
		}
	}
	for i, v := range inv {
		if v != 0 {
			t.Fatalf("inv[%d] = %d after return, want 0 (scratch must be restored)", i, v)
		}
	}
	if k := want[1]; k.Internal() || k.PendantLabel() != 2 {
		t.Fatalf("pendant key %+v: Internal()=%v PendantLabel()=%d", k, k.Internal(), k.PendantLabel())
	}
	if k := want[0]; !k.Internal() {
		t.Fatalf("internal key %+v reported as pendant", k)
	}
	// The realizing host nodes: internal key lands on the mapped image
	// of To, the pendant key on the fresh neighbor.
	if hu := hostTo[want[0]]; hu != 2 {
		t.Fatalf("internal key hostTo = %d, want 2", hu)
	}
	if hu := hostTo[want[1]]; hu != 3 {
		t.Fatalf("pendant key hostTo = %d, want 3", hu)
	}
}

// TestForEachExtensionMatchesEmbeddings cross-checks the CSR walk on a
// random-ish corpus: for every embedding of a pattern, each emitted
// internal key must correspond to a host edge between mapped nodes that
// the pattern lacks, and each pendant key to an unmapped neighbor.
func TestForEachExtensionMatchesEmbeddings(t *testing.T) {
	pattern := build([]graph.Label{1, 1}, [][3]int{{0, 1, 0}})
	host := build([]graph.Label{1, 1, 1, 2}, [][3]int{{0, 1, 0}, {1, 2, 0}, {2, 0, 3}, {2, 3, 1}})
	inv := make([]int32, host.NumNodes())
	hc := host.CSR()
	total := 0
	ForEachEmbedding(pattern, host, func(mapping []int) bool {
		ForEachExtension(hc, mapping, inv, func(pv, pu int) bool {
			return pattern.EdgeLabel(pv, pu) != graph.NoLabel
		}, func(k ExtKey, hu int32) {
			total++
			if k.Internal() {
				if int(hu) != mapping[k.To] {
					t.Fatalf("internal key %+v hostTo = %d, want mapped image %d", k, hu, mapping[k.To])
				}
				hu, hv := mapping[k.From], mapping[k.To]
				if host.EdgeLabel(hu, hv) != k.Label {
					t.Fatalf("internal key %+v has no realizing host edge %d-%d", k, hu, hv)
				}
				if pattern.EdgeLabel(int(k.From), int(k.To)) != graph.NoLabel {
					t.Fatalf("internal key %+v duplicates a pattern edge", k)
				}
				if k.From >= k.To {
					t.Fatalf("internal key %+v not oriented From < To", k)
				}
			} else if k.PendantLabel() < 0 {
				t.Fatalf("pendant key %+v decodes to a negative label", k)
			}
		})
		return true
	})
	if total == 0 {
		t.Fatal("no extension keys emitted over any embedding")
	}
}

package fsg

import (
	"math/rand"
	"reflect"
	"testing"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
)

// oneEdgeGrowths lists every one-edge growth of p over the given label
// alphabets: an internal edge between each non-adjacent pair, and a
// pendant edge to a fresh node from each node.
func oneEdgeGrowths(p *graph.Graph, nodeLabels, edgeLabels int) []isomorph.ExtKey {
	var keys []isomorph.ExtKey
	for u := 0; u < p.NumNodes(); u++ {
		for el := 0; el < edgeLabels; el++ {
			for v := u + 1; v < p.NumNodes(); v++ {
				if !p.HasEdge(u, v) {
					keys = append(keys, isomorph.ExtKey{From: int32(u), To: int32(v), Label: graph.Label(el)})
				}
			}
			for nl := 0; nl < nodeLabels; nl++ {
				keys = append(keys, isomorph.ExtKey{From: int32(u), To: isomorph.PendantTo(graph.Label(nl)), Label: graph.Label(el)})
			}
		}
	}
	return keys
}

// TestScratchKeyMatchesCanonical pins Phase 2's scratch path to the
// graph path it replaces: for random connected parents and every
// one-edge growth, the scratch layout equals the CSR and edge list of
// buildExtension's graph, and its key equals that graph's
// dfscode.Canonical byte for byte.
func TestScratchKeyMatchesCanonical(t *testing.T) {
	var (
		layout extLayout
		canon  dfscode.Canonicalizer
		buf    []byte
	)
	checked := 0
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		nl, el := 1+r.Intn(3), 1+r.Intn(2)
		p := randDB(r, 1, 2+r.Intn(7), nl, el)[0]
		for _, k := range oneEdgeGrowths(p, nl, el) {
			ext := buildExtension(p, k)
			gc, edges := layout.view(p, k)
			if !reflect.DeepEqual(gc, ext.CSR()) || !reflect.DeepEqual(edges, ext.Edges()) {
				t.Fatalf("seed %d, key %+v: scratch layout %+v %v, graph %+v %v", seed, k, gc, edges, ext.CSR(), ext.Edges())
			}
			buf = canon.AppendCanonical(buf[:0], gc, edges)
			if want := dfscode.Canonical(ext); string(buf) != want {
				t.Fatalf("seed %d, key %+v: scratch key %s, Canonical %s", seed, k, buf, want)
			}
			checked++
		}
	}
	t.Logf("%d growths checked", checked)
}

// TestScratchKeyAllocations: once its buffers have grown, the scratch
// path — layout, canonical key and candidate lookup — allocates nothing.
func TestScratchKeyAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := randDB(r, 1, 8, 2, 2)[0].Freeze()
	keys := oneEdgeGrowths(p, 2, 2)
	var (
		layout extLayout
		canon  dfscode.Canonicalizer
		buf    []byte
	)
	cands := map[string]bool{}
	for _, k := range keys {
		cands[dfscode.Canonical(buildExtension(p, k))] = true
	}
	pass := func() {
		for _, k := range keys {
			gc, edges := layout.view(p, k)
			buf = canon.AppendCanonical(buf[:0], gc, edges)
			if !cands[string(buf)] {
				t.Fatalf("key %+v: %s not found", k, buf)
			}
		}
	}
	pass() // grow the buffers
	if allocs := testing.AllocsPerRun(20, pass); allocs != 0 {
		t.Fatalf("scratch key path: %.1f allocations per %d keys, want 0", allocs, len(keys))
	}
}

package fsg

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
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

// canonicalParent returns g in canonical numbering — node i is DFS
// index i of its minimum code, edges in code order — with that code,
// the form every level pattern of the miner takes.
func canonicalParent(g *graph.Graph) (*graph.Graph, dfscode.Code) {
	code := dfscode.MinimumCode(g)
	return code.Graph().Freeze(), code
}

// TestScratchKeyMatchesCanonical pins Phase 2's scratch path to the
// graph path: for random connected parents in canonical numbering and
// every one-edge growth, the scratch layout equals the CSR and edge
// list of buildExtension's graph; a key is checked exactly when it
// grows the parent's code along dfscode's rightmost path; and for every
// checked key the grown code describes that graph in its identity
// numbering and Minimal over the layout agrees with dfscode.IsMinimal
// on the code.
func TestScratchKeyMatchesCanonical(t *testing.T) {
	var s grower
	var checked, minimal int
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		nl, el := 1+r.Intn(3), 1+r.Intn(2)
		p, pc := canonicalParent(randDB(r, 1, 2+r.Intn(7), nl, el)[0])
		s.setParent(p)
		if !slices.Equal(s.pcode, pc) {
			t.Fatalf("seed %d: parent reads as code %s, minimum code %s", seed, s.pcode, pc)
		}
		path := pc.RightmostPath()
		rm := path[len(path)-1]
		for _, k := range oneEdgeGrowths(p, nl, el) {
			ext := buildExtension(p, k)
			gc, edges := s.layout.view(p, k)
			if !reflect.DeepEqual(gc, ext.CSR()) || !reflect.DeepEqual(edges, ext.Edges()) {
				t.Fatalf("seed %d, key %+v: scratch layout %+v %v, graph %+v %v", seed, k, gc, edges, ext.CSR(), ext.Edges())
			}
			ok, got := s.checkKey(p, k)
			if want := slices.Contains(path, int(k.From)) && (!k.Internal() || int(k.To) == rm); ok != want {
				t.Fatalf("seed %d, key %+v on code %s (rightmost path %v): checked %v, want %v", seed, k, pc, path, ok, want)
			}
			if !ok {
				continue
			}
			if cg := s.code.Graph(); !slices.Equal(cg.Labels(), ext.Labels()) || !slices.Equal(cg.Edges(), ext.Edges()) {
				t.Fatalf("seed %d, key %+v: code %s describes %v, extension is %v", seed, k, s.code, cg, ext)
			}
			if want := dfscode.IsMinimal(s.code); got != want {
				t.Fatalf("seed %d, key %+v: Minimal(%s) = %v, IsMinimal %v", seed, k, s.code, got, want)
			}
			checked++
			if got {
				minimal++
			}
		}
	}
	if minimal == 0 || minimal == checked {
		t.Fatalf("%d of %d checks passed; want both outcomes covered", minimal, checked)
	}
	t.Logf("%d rightmost growths checked, %d minimal", checked, minimal)
}

// TestRightmostRuleGeneratesEachFormOnce enumerates every connected
// graph of up to 4 edges over small label alphabets, level by level the
// way Phase 2 used to: every one-edge growth of every form, deduplicated
// by dfscode.Canonical. Over the same parents in canonical numbering,
// the rightmost rule — a rightmost-path key that passes the minimality
// check — must produce each canonical key of buildExtension exactly
// once, and, once its buffers have grown, allocate nothing doing so.
func TestRightmostRuleGeneratesEachFormOnce(t *testing.T) {
	var s grower
	for _, alpha := range []struct{ nl, el int }{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 1}} {
		level := map[string]*graph.Graph{}
		for a := 0; a < alpha.nl; a++ {
			for b := a; b < alpha.nl; b++ {
				for e := 0; e < alpha.el; e++ {
					g := graph.New(2, 1)
					g.AddNode(graph.Label(a))
					g.AddNode(graph.Label(b))
					g.MustAddEdge(0, 1, graph.Label(e))
					level[dfscode.Canonical(g)] = g
				}
			}
		}
		for size := 1; size < 4; size++ {
			type parent struct {
				g    *graph.Graph
				keys []isomorph.ExtKey
			}
			var parents []parent
			for _, key := range sortedKeys(level) {
				p, _ := canonicalParent(level[key])
				parents = append(parents, parent{p, oneEdgeGrowths(p, alpha.nl, alpha.el)})
			}
			want := map[string]*graph.Graph{}
			got := map[string]int{}
			for _, par := range parents {
				s.setParent(par.g)
				for _, k := range par.keys {
					ext := buildExtension(par.g, k)
					want[dfscode.Canonical(ext)] = ext
					if _, minimal := s.checkKey(par.g, k); minimal {
						got[s.code.String()]++
					}
				}
			}
			for key := range want {
				if got[key] != 1 {
					t.Fatalf("labels %d/%d, %d edges: form %s generated %d times, want 1", alpha.nl, alpha.el, size+1, key, got[key])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("labels %d/%d, %d edges: %d forms generated, %d exist", alpha.nl, alpha.el, size+1, len(got), len(want))
			}
			t.Logf("labels %d/%d: %d forms with %d edges", alpha.nl, alpha.el, len(want), size+1)

			pass := func() {
				for _, par := range parents {
					s.setParent(par.g)
					for _, k := range par.keys {
						s.checkKey(par.g, k)
					}
				}
			}
			if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
				t.Fatalf("labels %d/%d, %d edges: scratch path made %.1f allocations per pass, want 0", alpha.nl, alpha.el, size+1, allocs)
			}
			level = want
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

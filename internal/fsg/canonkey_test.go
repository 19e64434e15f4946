package fsg

import (
	"math/rand"
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

// extend builds the graph key k grows p into: p's nodes and edges in
// their order, then the pendant node if any, then the new edge.
func extend(p *graph.Graph, k isomorph.ExtKey) *graph.Graph {
	ng := graph.New(p.NumNodes()+1, p.NumEdges()+1)
	for _, l := range p.Labels() {
		ng.AddNode(l)
	}
	for _, e := range p.Edges() {
		ng.MustAddEdge(e.From, e.To, e.Label)
	}
	if k.Internal() {
		ng.MustAddEdge(int(k.From), int(k.To), k.Label)
	} else {
		ng.MustAddEdge(int(k.From), ng.AddNode(k.PendantLabel()), k.Label)
	}
	return ng
}

// readCode reads the minimum DFS code off a canonically numbered
// pattern: an edge is the forward entry discovering its higher endpoint
// when that endpoint is the next undiscovered index, and otherwise the
// backward entry from it to the lower one.
func readCode(p *graph.Graph) dfscode.Code {
	var code dfscode.Code
	next := 1
	for _, e := range p.Edges() {
		lo, hi := min(e.From, e.To), max(e.From, e.To)
		ec := dfscode.EdgeCode{I: hi, J: lo, LI: p.NodeLabel(hi), LE: e.Label, LJ: p.NodeLabel(lo)}
		if hi == next {
			ec = dfscode.EdgeCode{I: lo, J: hi, LI: p.NodeLabel(lo), LE: e.Label, LJ: p.NodeLabel(hi)}
			next++
		}
		code = append(code, ec)
	}
	return code
}

// grownCode returns the parent's code with entry e appended.
func grownCode(s *grower, e dfscode.EdgeCode) dfscode.Code {
	return append(slices.Clone(s.pcode), e)
}

// checkLayout asserts that setParent laid p out faithfully: node
// labels, the entry index of every adjacent pair and the adjacency rows.
func checkLayout(t *testing.T, s *grower, p *graph.Graph, code dfscode.Code) {
	t.Helper()
	n := p.NumNodes()
	if s.n != n || !slices.Equal(s.labels[:n], p.Labels()) {
		t.Fatalf("code %s: layout has %d nodes labeled %v, pattern %d labeled %v", code, s.n, s.labels[:n], n, p.Labels())
	}
	for u := 0; u < n; u++ {
		var row []half
		for v := 0; v < n; v++ {
			pos := s.pos[u*n+v]
			if (pos != 0) != p.HasEdge(u, v) {
				t.Fatalf("code %s: pair (%d,%d) has entry %d, edge %v", code, u, v, pos, p.HasEdge(u, v))
			}
			if pos != 0 {
				if e := code[pos-1]; !(e.I == u && e.J == v || e.I == v && e.J == u) {
					t.Fatalf("code %s: pair (%d,%d) points at entry %+v", code, u, v, e)
				}
				row = append(row, half{to: int32(v), label: p.EdgeLabel(u, v)})
			}
		}
		got := slices.Clone(s.row(int32(u)))
		slices.SortFunc(got, func(a, b half) int { return int(a.to - b.to) })
		if !slices.Equal(got, row) {
			t.Fatalf("code %s: row %d is %v, want %v", code, u, got, row)
		}
	}
}

// TestScratchKeyMatchesCanonical pins Phase 2's trace check to the
// minimum-code builder: for random connected parents in canonical
// numbering and every one-edge growth, setParent lays the parent out
// faithfully, a key is checked exactly when it grows the parent's code
// along dfscode's rightmost path, the grown code describes the grown
// graph in its identity numbering, and the trace verdict equals
// dfscode.IsMinimal of the grown code. Once its buffers have grown, the
// check allocates nothing.
func TestScratchKeyMatchesCanonical(t *testing.T) {
	s := growerPool.New().(*grower)
	var checked, minimal, internal, pendant int
	type parent struct {
		code dfscode.Code
		keys []isomorph.ExtKey
	}
	var parents []parent
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		nl, el := 1+r.Intn(3), 1+r.Intn(2)
		p, pc := canonicalParent(randDB(r, 1, 2+r.Intn(7), nl, el)[0])
		if got := readCode(p); !slices.Equal(got, pc) {
			t.Fatalf("seed %d: parent reads as code %s, minimum code %s", seed, got, pc)
		}
		keys := oneEdgeGrowths(p, nl, el)
		parents = append(parents, parent{pc, keys})
		s.setParent(pc)
		checkLayout(t, s, p, pc)
		path := pc.RightmostPath()
		rm := path[len(path)-1]
		for _, k := range keys {
			e, ok, got := s.checkKey(k)
			if want := slices.Contains(path, int(k.From)) && (!k.Internal() || int(k.To) == rm); ok != want {
				t.Fatalf("seed %d, key %+v on code %s (rightmost path %v): checked %v, want %v", seed, k, pc, path, ok, want)
			}
			if !ok {
				continue
			}
			code := grownCode(s, e)
			ext := extend(p, k)
			if cg := code.Graph(); !slices.Equal(cg.Labels(), ext.Labels()) || !slices.Equal(cg.Edges(), ext.Edges()) {
				t.Fatalf("seed %d, key %+v: code %s describes %v, extension is %v", seed, k, code, cg, ext)
			}
			if want := dfscode.IsMinimal(code); got != want {
				t.Fatalf("seed %d, key %+v: trace verdict on %s = %v, IsMinimal %v", seed, k, code, got, want)
			}
			checked++
			if got {
				minimal++
			}
			if k.Internal() {
				internal++
			} else {
				pendant++
			}
		}
	}
	if minimal == 0 || minimal == checked || internal == 0 || pendant == 0 {
		t.Fatalf("%d of %d checks passed, %d internal and %d pendant keys; want both outcomes and both kinds covered", minimal, checked, internal, pendant)
	}
	t.Logf("%d rightmost growths checked (%d internal, %d pendant), %d minimal", checked, internal, pendant, minimal)

	pass := func() {
		for _, par := range parents {
			s.setParent(par.code)
			for _, k := range par.keys {
				s.checkKey(k)
			}
		}
	}
	if allocs := testing.AllocsPerRun(5, pass); allocs != 0 {
		t.Fatalf("trace check made %.1f allocations per pass, want 0", allocs)
	}
}

// FuzzTraceMinimal is the trace check's differential over
// fuzzer-chosen parents: for every rightmost key of a random connected
// parent in canonical numbering, the trace verdict equals
// dfscode.IsMinimal of the grown code.
func FuzzTraceMinimal(f *testing.F) {
	f.Add(uint8(6), uint8(2), uint8(1), int64(1))
	f.Add(uint8(8), uint8(1), uint8(1), int64(2))
	f.Add(uint8(9), uint8(3), uint8(2), int64(3))
	f.Fuzz(func(t *testing.T, size, nodeLabels, edgeLabels uint8, seed int64) {
		r := rand.New(rand.NewSource(seed))
		nl, el := 1+int(nodeLabels)%4, 1+int(edgeLabels)%3
		p, pc := canonicalParent(randDB(r, 1, 2+int(size)%9, nl, el)[0])
		s := growerPool.New().(*grower)
		s.setParent(pc)
		for _, k := range oneEdgeGrowths(p, nl, el) {
			e, ok, got := s.checkKey(k)
			if !ok {
				continue
			}
			if code := grownCode(s, e); got != dfscode.IsMinimal(code) {
				t.Fatalf("key %+v: trace verdict on %s = %v, IsMinimal disagrees", k, code, got)
			}
		}
	})
}

// TestRightmostRuleGeneratesEachFormOnce enumerates every connected
// graph of up to 4 edges over small label alphabets, level by level the
// way Phase 2 used to: every one-edge growth of every form, deduplicated
// by dfscode.Canonical. Over the same parents in canonical numbering,
// the rightmost rule — a rightmost-path key that passes the minimality
// check — must produce each canonical form exactly once, and, once its
// buffers have grown, allocate nothing doing so.
func TestRightmostRuleGeneratesEachFormOnce(t *testing.T) {
	s := growerPool.New().(*grower)
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
				code dfscode.Code
				keys []isomorph.ExtKey
			}
			var parents []parent
			for _, key := range sortedKeys(level) {
				p, pc := canonicalParent(level[key])
				parents = append(parents, parent{p, pc, oneEdgeGrowths(p, alpha.nl, alpha.el)})
			}
			want := map[string]*graph.Graph{}
			got := map[string]int{}
			for _, par := range parents {
				s.setParent(par.code)
				for _, k := range par.keys {
					ext := extend(par.g, k)
					want[dfscode.Canonical(ext)] = ext
					if e, _, minimal := s.checkKey(k); minimal {
						got[grownCode(s, e).String()]++
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
					s.setParent(par.code)
					for _, k := range par.keys {
						s.checkKey(k)
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

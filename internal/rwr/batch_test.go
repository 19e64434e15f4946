package rwr

import (
	"math"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/feature"
	"graphsig/internal/graph"
)

// batchedStationary runs the batched kernel from every non-isolated node
// of g and returns each source's stationary distribution, indexed by
// source node (nil for isolated nodes).
func batchedStationary(g *graph.Graph, fs *feature.Set, cfg Config) [][]float64 {
	cfg.fill()
	w := getWalker(fs, cfg)
	defer walkers.Put(w)
	w.load(g)
	out := make([][]float64, g.NumNodes())
	var live []int
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) > 0 {
			live = append(live, v)
		}
	}
	for lo := 0; lo < len(live); lo += maxBatch {
		starts := live[lo:min(lo+maxBatch, len(live))]
		w.iterate(starts, func(j, k int) {
			p := make([]float64, g.NumNodes())
			for u := range p {
				p[u] = w.p[u*w.stride+k]
			}
			out[starts[j]] = p
		})
	}
	return out
}

// sameBits reports the first index where a and b differ in any bit, or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkAgainstPush compares, for every source of every graph, the batched
// kernel's stationary distribution, feature masses and discretized vector
// with the push iteration's, bit for bit.
func checkAgainstPush(t *testing.T, name string, db []*graph.Graph, fs *feature.Set) int {
	t.Helper()
	cfg := Defaults()
	sources := 0
	for gi, g := range db {
		batched := batchedStationary(g, fs, cfg)
		vecs := GraphVectors(g, fs, cfg)
		for v := 0; v < g.NumNodes(); v++ {
			sources++
			p := stationary(g, v, cfg)
			if g.Degree(v) > 0 {
				if i := sameBits(batched[v], p); i >= 0 {
					t.Fatalf("%s graph %d source %d: stationary differs from push at node %d", name, gi, v, i)
				}
			}
			want := pushFeatureMasses(g, v, p, fs, cfg)
			if i := sameBits(FeatureMasses(g, v, fs, cfg), want); i >= 0 {
				t.Fatalf("%s graph %d source %d: feature mass %d differs from push", name, gi, v, i)
			}
			if wantVec := Discretize(want, cfg.Bins); !vecs[v].Equal(wantVec) {
				t.Fatalf("%s graph %d source %d: vector %v; push gives %v", name, gi, v, vecs[v], wantVec)
			}
		}
	}
	return sources
}

// TestBatchedRWRMatchesPushOracle is the exactness gate of the batched
// kernel: every stationary distribution, feature mass and discretized
// vector equals the one-source push iteration's bit for bit.
func TestBatchedRWRMatchesPushOracle(t *testing.T) {
	t.Run("hand-built", func(t *testing.T) {
		db := []*graph.Graph{
			build([]graph.Label{0, 1, 2}, [][2]int{{0, 1}}),                               // isolated node 2
			build([]graph.Label{0, 1}, [][2]int{{0, 1}}),                                  // single edge
			build([]graph.Label{9, 1, 1, 1, 2}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}), // star
			build([]graph.Label{0}, nil),                                                  // lone node
		}
		checkAgainstPush(t, "hand-built", db, edgeSet(db...))
	})
	if testing.Short() {
		return
	}
	t.Run("MOLT-4x400", func(t *testing.T) {
		db := chem.GenerateN(chem.CancerSpecs()[1], 400).Graphs
		fs := feature.ChemistrySet(db, chem.Alphabet(), 5)
		n := checkAgainstPush(t, "MOLT-4", db, fs)
		t.Logf("%d sources bit-identical", n)
	})
	for _, spec := range chem.CancerSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			db := chem.GenerateN(spec, 60).Graphs
			checkAgainstPush(t, spec.Name, db, feature.ChemistrySet(db, chem.Alphabet(), 5))
		})
	}
}

// TestBatchLargerThanMaxBatch runs a graph with more sources than one
// batch carries, so sources freeze across several batches.
func TestBatchLargerThanMaxBatch(t *testing.T) {
	const n = 2*maxBatch + 7
	labels := make([]graph.Label, n)
	var edges [][2]int
	for v := 0; v < n; v++ {
		labels[v] = graph.Label(v % 3)
		if v > 0 {
			edges = append(edges, [2]int{(v * 7) % v, v})
		}
	}
	g := build(labels, edges)
	checkAgainstPush(t, "path-tree", []*graph.Graph{g}, edgeSet(g))
}

// TestWalkAllocations: one-source Walk draws its arena from the pool and
// allocates only what it returns.
func TestWalkAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation defeats sync.Pool; alloc counts are meaningless under -race")
	}
	g := build([]graph.Label{0, 1, 2, 1, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	fs := edgeSet(g)
	cfg := Defaults()
	Walk(g, 0, fs, cfg)
	if got := testing.AllocsPerRun(100, func() { Walk(g, 1, fs, cfg) }); got > 4 {
		t.Errorf("Walk allocates %.1f times per call; want at most 4", got)
	}
}

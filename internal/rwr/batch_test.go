package rwr

import (
	"math"
	"slices"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/feature"
	"graphsig/internal/graph"
)

// frozenSource is what the batched kernel holds for one source when it
// freezes it: the distribution, its feature masses and the number of
// iterations run.
type frozenSource struct {
	p, masses []float64
	iters     int
}

// batchedSources runs the batched kernel from every non-isolated node of
// g and returns each source's frozen state, indexed by source node (zero
// for isolated nodes).
func batchedSources(g *graph.Graph, fs *feature.Set, cfg Config) []frozenSource {
	cfg.fill()
	w := getWalker(fs, cfg)
	defer walkers.Put(w)
	w.load(g)
	w.masses = grow(w.masses, fs.Len())
	out := make([]frozenSource, g.NumNodes())
	var live []int
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) > 0 {
			live = append(live, v)
		}
	}
	for lo := 0; lo < len(live); lo += maxBatch {
		starts := live[lo:min(lo+maxBatch, len(live))]
		w.iterate(starts, func(j, k, iters int) {
			p := make([]float64, g.NumNodes())
			for u := range p {
				p[u] = w.p[u*w.stride+k]
			}
			out[starts[j]] = frozenSource{p, slices.Clone(w.featureMasses(k)), iters}
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

// checkAgainstPush compares every source of every graph with the push
// iteration. The discretized vector must equal the push's run to its own
// stop: that is the kernel's output contract. The distribution and
// feature masses the kernel froze must equal, bit for bit, the push's
// stopped at the same iteration, which can be no later than the push's
// own stop. It returns the number of sources and the iterations the
// kernel ran over them.
func checkAgainstPush(t *testing.T, name string, db []*graph.Graph, fs *feature.Set, cfg Config) (sources, iters int) {
	t.Helper()
	cfg.fill()
	for gi, g := range db {
		frozen := batchedSources(g, fs, cfg)
		vecs := GraphVectors(g, fs, cfg)
		for v := 0; v < g.NumNodes(); v++ {
			sources++
			p, stop := stationary(g, v, cfg, cfg.MaxIterations)
			if want := Discretize(pushFeatureMasses(g, v, p, fs, cfg), cfg.Bins); !vecs[v].Equal(want) {
				t.Fatalf("%s graph %d source %d: vector %v; push gives %v", name, gi, v, vecs[v], want)
			}
			if g.Degree(v) == 0 {
				continue
			}
			got := frozen[v]
			iters += got.iters
			if got.iters < 1 || got.iters > stop {
				t.Fatalf("%s graph %d source %d: froze after %d iterations; push stops after %d", name, gi, v, got.iters, stop)
			}
			pAt, _ := stationary(g, v, cfg, got.iters)
			if i := sameBits(got.p, pAt); i >= 0 {
				t.Fatalf("%s graph %d source %d: stationary differs from push at node %d after %d iterations", name, gi, v, i, got.iters)
			}
			if i := sameBits(got.masses, pushFeatureMasses(g, v, pAt, fs, cfg)); i >= 0 {
				t.Fatalf("%s graph %d source %d: feature mass %d differs from push after %d iterations", name, gi, v, i, got.iters)
			}
		}
	}
	return sources, iters
}

// TestBatchedRWRMatchesPushOracle is the exactness gate of the batched
// kernel: every discretized vector equals the push iteration's run to
// its own stop, and every frozen distribution and feature mass equals
// the push iteration's stopped at the same step, bit for bit.
func TestBatchedRWRMatchesPushOracle(t *testing.T) {
	cfg := Defaults()
	t.Run("hand-built", func(t *testing.T) {
		db := []*graph.Graph{
			build([]graph.Label{0, 1, 2}, [][2]int{{0, 1}}),                               // isolated node 2
			build([]graph.Label{0, 1}, [][2]int{{0, 1}}),                                  // single edge
			build([]graph.Label{9, 1, 1, 1, 2}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}), // star
			build([]graph.Label{0}, nil),                                                  // lone node
		}
		checkAgainstPush(t, "hand-built", db, edgeSet(db...), cfg)
	})
	if testing.Short() {
		return
	}
	t.Run("MOLT-4x400", func(t *testing.T) {
		db := chem.GenerateN(chem.CancerSpecs()[1], 400).Graphs
		fs := feature.ChemistrySet(db, chem.Alphabet(), 5)
		n, iters := checkAgainstPush(t, "MOLT-4", db, fs, cfg)
		t.Logf("%d sources identical, %.1f iterations per source", n, float64(iters)/float64(n))
	})
	for _, spec := range chem.CancerSpecs() {
		t.Run(spec.Name, func(t *testing.T) {
			db := chem.GenerateN(spec, 200).Graphs
			checkAgainstPush(t, spec.Name, db, feature.ChemistrySet(db, chem.Alphabet(), 5), cfg)
		})
	}
}

// TestBatchLargerThanMaxBatch runs a binary tree with more sources than
// one batch carries, so sources freeze across several batches, and
// checks that within every batch sources freeze at different
// iterations, so a batch keeps iterating after some of its columns are
// frozen.
func TestBatchLargerThanMaxBatch(t *testing.T) {
	const n = 2*maxBatch + 7
	labels := make([]graph.Label, n)
	var edges [][2]int
	for v := 0; v < n; v++ {
		labels[v] = graph.Label(v % 3)
		if v > 0 {
			edges = append(edges, [2]int{(v - 1) / 2, v})
		}
	}
	g := build(labels, edges)
	fs, cfg := edgeSet(g), Defaults()
	srcs := batchedSources(g, fs, cfg)
	for lo := 0; lo < n; lo += maxBatch {
		iters := map[int]bool{}
		for _, s := range srcs[lo:min(lo+maxBatch, n)] {
			iters[s.iters] = true
		}
		if len(iters) < 2 {
			t.Errorf("batch at source %d: every source froze at the same iteration %v", lo, iters)
		}
	}
	checkAgainstPush(t, "binary-tree", []*graph.Graph{g}, fs, cfg)
}

// TestCertificateMatchesToleranceStop covers the two ways a source ends
// without its certificate. From the centre of a star whose four leaves
// carry distinct labels, symmetry puts every edge feature's mass at
// 0.25 up to float rounding, so 10·mass sits on the 2.5 boundary at every iteration:
// the centre must freeze where the push's tolerance stop does. At α =
// 0.05 with 20 iterations, and at α = 0.25 with 17, the cap binds: the
// capped output can lie 2c·β^(MaxIterations-1) from p*, more than half
// a bin, so no source may certify. Each must run every iteration and
// match the push stopped there, though at α = 0.25 a bound that left
// out the cap would certify sources before iteration 17.
func TestCertificateMatchesToleranceStop(t *testing.T) {
	star := build([]graph.Label{9, 1, 2, 3, 4}, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	fs := edgeSet(star)
	cfg := Defaults()
	for _, m := range oracleMasses(star, 0, fs, cfg) {
		if math.Abs(m-0.25) > 1e-12 {
			t.Fatalf("star centre mass %v; want 0.25 on every feature", m)
		}
	}
	_, stop := stationary(star, 0, cfg, cfg.MaxIterations)
	if got := batchedSources(star, fs, cfg)[0].iters; got != stop {
		t.Errorf("boundary source froze after %d iterations; the tolerance stop is after %d", got, stop)
	}
	checkAgainstPush(t, "star", []*graph.Graph{star}, fs, cfg)

	db := chem.GenerateN(chem.CancerSpecs()[1], 20).Graphs
	fs = feature.ChemistrySet(db, chem.Alphabet(), 5)
	live := 0
	for _, g := range db {
		for v := 0; v < g.NumNodes(); v++ {
			if g.Degree(v) > 0 {
				live++
			}
		}
	}
	for _, c := range []struct {
		alpha float64
		cap   int
	}{{0.05, 20}, {0.25, 17}} {
		capped := Defaults()
		capped.Alpha, capped.MaxIterations = c.alpha, c.cap
		if _, iters := checkAgainstPush(t, "capped", db, fs, capped); iters != c.cap*live {
			t.Errorf("α=%v: %d sources ran %d iterations; want %d each", c.alpha, live, iters, c.cap)
		}
	}
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

// FuzzRWRCertificate drives feature masses onto bin boundaries, where a
// wrong certificate would flip a rounding: symmetric stars, paths,
// cycles, spiders and double stars with few labels, so leaves share
// labels and masses split evenly. Alpha comes from a small set; at 0.1
// the MaxIterations cap binds before the tolerance on the trees and
// even cycles. Half the inputs use a feature set with an atom feature and
// untracked traversals. Every vector must equal the push oracle's, and
// every frozen distribution the push's stopped at the same step.
func FuzzRWRCertificate(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(1), []byte{9, 1})
	f.Add(uint8(1), uint8(5), uint8(0), []byte{0, 1})
	f.Add(uint8(2), uint8(6), uint8(2), []byte{2})
	f.Add(uint8(3), uint8(3), uint8(5), []byte{1, 2, 2})
	f.Add(uint8(4), uint8(2), uint8(3), []byte{0})
	f.Fuzz(func(t *testing.T, shape, size, mode uint8, labels []byte) {
		n := 1 + int(size)%12
		label := func(i int) graph.Label {
			if len(labels) == 0 {
				return 0
			}
			return graph.Label(labels[i%len(labels)] % 3)
		}
		var nodes []graph.Label
		var edges [][2]int
		add := func(from int) int {
			nodes = append(nodes, label(len(nodes)))
			if from >= 0 {
				edges = append(edges, [2]int{from, len(nodes) - 1})
			}
			return len(nodes) - 1
		}
		switch shape % 5 {
		case 0: // star
			c := add(-1)
			for i := 0; i < n; i++ {
				add(c)
			}
		case 1, 2: // path, closed into a cycle
			prev := add(-1)
			for i := 0; i < n; i++ {
				prev = add(prev)
			}
			if shape%5 == 2 && n >= 2 {
				edges = append(edges, [2]int{prev, 0})
			}
		case 3: // spider: legs of two edges
			c := add(-1)
			for i := 0; i < n; i++ {
				add(add(c))
			}
		case 4: // double star
			a := add(-1)
			b := add(a)
			for i := 0; i < n; i++ {
				add(a)
				add(b)
			}
		}
		g := build(nodes, edges)
		fs := edgeSet(g)
		if mode&4 != 0 {
			e := g.Edges()[0]
			fs = feature.NewCustomSet(
				[]feature.EdgeType{{A: g.NodeLabel(e.From), B: g.NodeLabel(e.To), Bond: e.Label}},
				[]graph.Label{1}, nil)
		}
		cfg := Defaults()
		cfg.Alpha = []float64{0.1, 0.25, 0.5, 0.85}[mode%4]
		checkAgainstPush(t, "fuzz", []*graph.Graph{g}, fs, cfg)
	})
}

package rwr

import (
	"math"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/feature"
	"graphsig/internal/graph"
)

// solved loads g, of at most maxBatch nodes, into w and runs the solve
// from every node. It returns the live sources the certificate accepted
// and those it refused; w.p then holds the solution, stride n, and
// w.delta each column's residual.
func solved(w *walker, g *graph.Graph) (accepted, refused []int) {
	w.load(g)
	w.masses = grow(w.masses, w.fs.Len())
	w.live = w.live[:0]
	nodes := make([]int, g.NumNodes())
	for v := range nodes {
		nodes[v] = v
		if g.Degree(v) > 0 {
			w.live = append(w.live, v)
		}
	}
	refused = append(refused, w.solve(nodes, func(i int, _ []float64) { accepted = append(accepted, i) })...)
	return accepted, refused
}

// TestSolveCertifiesMolecules: on MOLT-4 ×400 every graph takes the
// solve, and its certificate accepts every non-isolated source, so no
// source is iterated.
func TestSolveCertifiesMolecules(t *testing.T) {
	if testing.Short() {
		t.Skip("400 molecules")
	}
	db := chem.GenerateN(chem.CancerSpecs()[1], 400).Graphs
	fs := feature.ChemistrySet(db, chem.Alphabet(), 5)
	cfg := Defaults()
	cfg.fill()
	w := getWalker(fs, cfg)
	defer walkers.Put(w)
	var accepted, live int
	for gi, g := range db {
		if g.NumNodes() > maxBatch {
			t.Fatalf("graph %d has %d nodes; the solve takes at most %d", gi, g.NumNodes(), maxBatch)
		}
		a, r := solved(w, g)
		accepted += len(a)
		live += len(a) + len(r)
		if len(r) > 0 {
			t.Errorf("graph %d: the certificate refused sources %v", gi, r)
		}
	}
	if _, iters := DatabaseVectors(db, fs, cfg); iters != 0 {
		t.Errorf("DatabaseVectors ran %d power iterations; want 0", iters)
	}
	t.Logf("the solve accepted %d of %d sources", accepted, live)
}

// treeGraph is a binary tree on n nodes, node v hanging from (v-1)/2,
// with labels cycling over three values.
func treeGraph(n int) *graph.Graph {
	labels := make([]graph.Label, n)
	var edges [][2]int
	for v := 0; v < n; v++ {
		labels[v] = graph.Label(v % 3)
		if v > 0 {
			edges = append(edges, [2]int{(v - 1) / 2, v})
		}
	}
	return build(labels, edges)
}

// TestSolveSizeRule: a graph of maxBatch nodes is solved and runs no
// power iteration; one of maxBatch+1 nodes is iterated from every
// source. Both match the push oracle.
func TestSolveSizeRule(t *testing.T) {
	cfg := Defaults()
	for _, c := range []struct {
		n      int
		solved bool
	}{{maxBatch, true}, {maxBatch + 1, false}} {
		g := treeGraph(c.n)
		fs := edgeSet(g)
		_, iters := DatabaseVectors([]*graph.Graph{g}, fs, cfg)
		if solvedAll := iters == 0; solvedAll != c.solved || (!c.solved && iters < int64(c.n)) {
			t.Errorf("%d nodes: %d power iterations; want solved=%v", c.n, iters, c.solved)
		}
		checkAgainstPush(t, "tree", []*graph.Graph{g}, fs, cfg)
	}
}

// TestSolveDisconnected: a ring with a side chain, a salt-like second
// component of two nodes and two isolated nodes. The components' blocks
// of the solution stay exactly zero across each other, isolated nodes
// get zero vectors, and every live source is accepted and matches the
// push oracle.
func TestSolveDisconnected(t *testing.T) {
	g := build(
		[]graph.Label{0, 0, 1, 0, 0, 2, 3, 4, 5, 0, 1},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {2, 5}, {5, 6}, {7, 8}})
	fs := edgeSet(g)
	cfg := Defaults()
	cfg.fill()
	w := getWalker(fs, cfg)
	defer walkers.Put(w)
	accepted, refused := solved(w, g)
	if len(refused) > 0 || len(accepted) != 9 {
		t.Errorf("accepted %v, refused %v; want the 9 live sources accepted", accepted, refused)
	}
	n := g.NumNodes()
	comp := []int{0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 3}
	for u := 0; u < n; u++ {
		for k := 0; k < n; k++ {
			if comp[u] != comp[k] && w.p[u*n+k] != 0 {
				t.Errorf("mass %g at node %d from source %d in another component", w.p[u*n+k], u, k)
			}
		}
	}
	checkAgainstPush(t, "disconnected", []*graph.Graph{g}, fs, cfg)
}

// TestSolveCertificate perturbs a solved column by a known L1 amount
// toward an x.5 boundary. Adding (η/α)·y, where y is the solved column
// of another source j, moves the residual by η·e_j (up to y's own
// residual, about 1e-16), and the column by η/α in L1 from the limit,
// since y sums to 1 and is non-negative; the masses and their normalizing
// total can each move by that much. So the column could flip a bin
// exactly when some bins·mass lies within bins·(2η/α + c·reach) +
// slack of its nearest x.5, and the certificate must refuse exactly
// those perturbations. The sweep over η crosses that threshold, and
// some refused perturbations would pass a certificate that left out
// the 1/α or the normalizing-total term.
func TestSolveCertificate(t *testing.T) {
	g := build([]graph.Label{0, 1, 2, 3, 4, 5}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {1, 4}})
	fs := edgeSet(g)
	cfg := Defaults()
	cfg.fill()
	w := getWalker(fs, cfg)
	defer walkers.Put(w)
	if _, refused := solved(w, g); len(refused) > 0 {
		t.Fatalf("clean solve refused %v", refused)
	}
	n, alpha := g.NumNodes(), cfg.Alpha
	bins, c, reach := w.bounds()
	x := append([]float64(nil), w.p[:n*n]...)
	masses := func(k int) []float64 {
		w.p = append(w.p[:0], x...)
		return append([]float64(nil), w.featureMasses(k)...)
	}
	// dist is the distance of the nearest bins·mass to its x.5, and
	// boundary that x.5 divided by bins.
	dist := func(m []float64) (d, boundary float64, f int) {
		d = math.Inf(1)
		for _, lf := range w.feats {
			y := bins * m[lf]
			if e := math.Abs(y - math.Floor(y) - 0.5); e < d {
				d, boundary, f = e, (math.Floor(y)+0.5)/bins, int(lf)
			}
		}
		return d, boundary, f
	}
	// Source s's most fragile feature f, and a source j whose own mass of
	// f lies across f's boundary, so mixing j's column in moves it there.
	s, j, f := -1, -1, -1
	best := math.Inf(1)
	for cs := 0; cs < n; cs++ {
		ms := masses(cs)
		d, b, cf := dist(ms)
		for cj := 0; cj < n; cj++ {
			if mj := masses(cj)[cf]; d < best && (mj-b)*(ms[cf]-b) < 0 {
				s, j, f, best = cs, cj, cf, d
			}
		}
	}
	if s < 0 {
		t.Fatal("no source has a mass another source's column pulls across a boundary")
	}
	clean := Discretize(masses(s), cfg.Bins)
	offset := bins*c*reach + certSlack
	var accepted, refusedBy2, flipped int
	for eta := 1e-9; eta < 1; eta *= 1.05 {
		w.p = append(w.p[:0], x...)
		for u := 0; u < n; u++ {
			w.p[u*n+s] += eta / alpha * x[u*n+j]
		}
		w.residuals()
		got := w.certain(s, offset)
		m := append([]float64(nil), w.masses...)
		d, _, _ := dist(m)
		threshold := bins*(2*eta/alpha+c*reach) + certSlack
		if math.Abs(d-threshold) < 1e-9 {
			continue // the residual equals η only up to float rounding
		}
		if got != (d > threshold) {
			t.Fatalf("η=%g: distance %g bins to the nearest x.5, threshold %g: certain = %v", eta, d, threshold, got)
		}
		switch {
		case got:
			accepted++
			if v := Discretize(m, cfg.Bins); !v.Equal(clean) {
				t.Fatalf("η=%g: accepted column rounds to %v; the limit's is %v", eta, v, clean)
			}
		case d > bins*(eta/alpha+c*reach)+certSlack:
			refusedBy2++
		}
		if Discretize(m, cfg.Bins)[f] != clean[f] {
			flipped++
		}
	}
	if accepted == 0 || refusedBy2 == 0 || flipped == 0 {
		t.Errorf("sweep: %d accepted, %d refused only for the normalizing term, %d flipped feature %d; want each above 0",
			accepted, refusedBy2, flipped, f)
	}
}

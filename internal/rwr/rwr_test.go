package rwr

import (
	"math"
	"math/rand"
	"testing"

	"graphsig/internal/feature"
	"graphsig/internal/graph"
)

// labels: a=0, b=1, c=2, d=3, e=4, f=5 with single edge label 0.
func build(labels []graph.Label, edges [][2]int) *graph.Graph {
	g := graph.New(len(labels), len(edges))
	for _, l := range labels {
		g.AddNode(l)
	}
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1], 0)
	}
	return g
}

// edgeSet builds an AllEdgeTypesSet over the given graphs.
func edgeSet(db ...*graph.Graph) *feature.Set {
	return feature.AllEdgeTypesSet(db, nil)
}

func TestDiscretizePaperExamples(t *testing.T) {
	v := Discretize([]float64{0.07, 0.34, 0, 1}, 10)
	want := feature.Vector{1, 3, 0, 10}
	if !v.Equal(want) {
		t.Errorf("Discretize = %v; want %v", v, want)
	}
}

func TestFeatureMassesSumToOne(t *testing.T) {
	g := build([]graph.Label{0, 1, 2, 1}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	fs := edgeSet(g)
	for start := 0; start < g.NumNodes(); start++ {
		m := oracleMasses(g, start, fs, Defaults())
		sum := 0.0
		for _, x := range m {
			sum += x
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("start %d: masses sum to %f", start, sum)
		}
	}
}

func TestIsolatedNodeZeroVector(t *testing.T) {
	g := build([]graph.Label{0, 1, 2}, [][2]int{{0, 1}})
	fs := edgeSet(g)
	v := Walk(g, 2, fs, Defaults())
	if !v.IsZero() {
		t.Errorf("isolated node vector = %v; want zero", v)
	}
}

func TestProximityWeighting(t *testing.T) {
	// Long path a-b-c-d-e-f (distinct labels so each edge is its own
	// feature). From node 0, the near edge must carry more mass than the
	// far edge: RWR preserves proximity, unlike plain counting.
	g := build([]graph.Label{0, 1, 2, 3, 4, 5},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	fs := edgeSet(g)
	m := oracleMasses(g, 0, fs, Defaults())
	near, _ := fs.EdgeFeature(0, 1, 0)
	far, _ := fs.EdgeFeature(4, 5, 0)
	if !(m[near] > m[far]) {
		t.Errorf("near=%f far=%f; want near > far", m[near], m[far])
	}
	if m[far] < 0 {
		t.Errorf("negative mass %f", m[far])
	}
}

func TestHigherAlphaTightensWindow(t *testing.T) {
	g := build([]graph.Label{0, 1, 2, 3, 4, 5},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	fs := edgeSet(g)
	far, _ := fs.EdgeFeature(4, 5, 0)
	loose := Defaults()
	loose.Alpha = 0.1
	tight := Defaults()
	tight.Alpha = 0.6
	mLoose := oracleMasses(g, 0, fs, loose)
	mTight := oracleMasses(g, 0, fs, tight)
	if !(mTight[far] < mLoose[far]) {
		t.Errorf("far mass: tight=%f loose=%f; want tight < loose", mTight[far], mLoose[far])
	}
}

func TestSymmetricNodesGetEqualVectors(t *testing.T) {
	// Star: center 0 (label 9), leaves all label 1. All leaves are
	// automorphic, so their vectors must be identical.
	g := build([]graph.Label{9, 1, 1, 1}, [][2]int{{0, 1}, {0, 2}, {0, 3}})
	fs := edgeSet(g)
	v1 := Walk(g, 1, fs, Defaults())
	v2 := Walk(g, 2, fs, Defaults())
	v3 := Walk(g, 3, fs, Defaults())
	if !v1.Equal(v2) || !v2.Equal(v3) {
		t.Errorf("automorphic leaves differ: %v %v %v", v1, v2, v3)
	}
}

func TestWalkDeterministic(t *testing.T) {
	g := build([]graph.Label{0, 1, 2, 1, 0}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	fs := edgeSet(g)
	a := Walk(g, 0, fs, Defaults())
	b := Walk(g, 0, fs, Defaults())
	if !a.Equal(b) {
		t.Error("Walk not deterministic")
	}
}

// TestPaperFig6Scenario reconstructs the qualitative claim of Fig 6 /
// Table II: graphs sharing the subgraph of Fig 7 (a-b with b-c and b-d)
// have a common non-zero floor exactly on the shared edge features, and
// adding a graph without the subgraph zeroes the floor.
func TestPaperFig6Scenario(t *testing.T) {
	const (
		a = 0
		b = 1
		c = 2
		d = 3
		e = 4
		f = 5
	)
	// G1-G3 contain a-b, b-c, b-d (plus varying extras). G4 does not.
	g1 := build([]graph.Label{a, b, c, d, e},
		[][2]int{{0, 1}, {1, 2}, {1, 3}, {0, 4}})
	g2 := build([]graph.Label{a, b, c, d, f},
		[][2]int{{0, 1}, {1, 2}, {1, 3}, {3, 4}})
	g3 := build([]graph.Label{a, b, c, d, e, f},
		[][2]int{{0, 1}, {1, 2}, {1, 3}, {2, 4}, {2, 5}})
	g4 := build([]graph.Label{a, d, f},
		[][2]int{{0, 1}, {0, 2}, {1, 2}})
	db := []*graph.Graph{g1, g2, g3, g4}
	fs := feature.AllEdgeTypesSet(db, nil)
	cfg := Defaults()

	// Vectors from the 'a' node (node 0) of each graph.
	var vecs []feature.Vector
	for _, g := range db[:3] {
		vecs = append(vecs, Walk(g, 0, fs, cfg))
	}
	floor := feature.Floor(vecs)
	if floor.IsZero() {
		t.Fatal("floor of G1-G3 'a' vectors is zero; shared subgraph lost")
	}
	for _, pair := range [][2]graph.Label{{a, b}, {b, c}, {b, d}} {
		fi, ok := fs.EdgeFeature(pair[0], pair[1], 0)
		if !ok {
			t.Fatalf("missing feature %v", pair)
		}
		if floor[fi] == 0 {
			t.Errorf("shared edge %v has zero floor", pair)
		}
	}
	// Features of the non-shared edges must floor to zero.
	if fi, ok := fs.EdgeFeature(a, e, 0); ok && floor[fi] != 0 {
		t.Errorf("non-shared edge a-e has floor %d", floor[fi])
	}
	// Adding G4 (no common subgraph) zeroes the floor.
	all := append(vecs, Walk(g4, 0, fs, cfg))
	if !feature.Floor(all).IsZero() {
		t.Errorf("floor over G1-G4 = %v; want zero", feature.Floor(all))
	}
}

func TestDatabaseVectorsOrderAndParallelism(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	var db []*graph.Graph
	for i := 0; i < 20; i++ {
		n := 2 + r.Intn(8)
		g := graph.New(n, n)
		for v := 0; v < n; v++ {
			g.AddNode(graph.Label(r.Intn(3)))
		}
		for v := 1; v < n; v++ {
			g.MustAddEdge(r.Intn(v), v, 0)
		}
		g.ID = i
		db = append(db, g)
	}
	fs := feature.AllEdgeTypesSet(db, nil)
	wantLen := 0
	for _, g := range db {
		wantLen += g.NumNodes()
	}
	for _, workers := range []int{1, 2, 4} {
		cfg := Defaults()
		cfg.Workers = workers
		nvs, _ := DatabaseVectors(db, fs, cfg)
		if len(nvs) != wantLen {
			t.Fatalf("workers=%d: got %d vectors; want %d", workers, len(nvs), wantLen)
		}
		idx := 0
		for gi, g := range db {
			for v := 0; v < g.NumNodes(); v++ {
				nv := nvs[idx]
				idx++
				if nv.GraphID != gi || nv.NodeID != v {
					t.Fatalf("workers=%d: vector %d has provenance (%d,%d); want (%d,%d)", workers, idx-1, nv.GraphID, nv.NodeID, gi, v)
				}
				if nv.Label != g.NodeLabel(v) {
					t.Fatalf("workers=%d: vector %d label mismatch", workers, idx-1)
				}
				// Batched, parallel result must equal the one-source walk.
				if want := Walk(g, v, fs, cfg); !nv.Vec.Equal(want) {
					t.Fatalf("workers=%d: vector %d differs from one-source walk", workers, idx-1)
				}
			}
		}
	}
}

func TestWindowCounts(t *testing.T) {
	g := build([]graph.Label{0, 1, 2, 3, 4, 5},
		[][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}})
	fs := edgeSet(g)
	v := WindowCounts(g, 0, 2, fs, 10)
	near, _ := fs.EdgeFeature(0, 1, 0)
	mid, _ := fs.EdgeFeature(1, 2, 0)
	far, _ := fs.EdgeFeature(4, 5, 0)
	if v[near] == 0 || v[mid] == 0 {
		t.Errorf("in-window edges zero: %v", v)
	}
	// Plain counting weights near and mid equally — the information RWR
	// preserves and counting loses.
	if v[near] != v[mid] {
		t.Errorf("near=%d mid=%d; plain counts should be equal", v[near], v[mid])
	}
	if v[far] != 0 {
		t.Errorf("edge outside radius counted: %v", v)
	}
}

func TestConfigFillDefaults(t *testing.T) {
	var c Config
	c.fill()
	if c.Alpha != 0.25 || c.Bins != 10 || c.MaxIterations != 100 || c.Tolerance != 1e-9 {
		t.Errorf("fill gave %+v", c)
	}
}

// TestStationaryExactMatchesPowerIteration: the power iteration run to
// a tight tolerance reaches the exact solve. It reads the push oracle,
// which the kernel matches bit for bit at the step each source freezes
// (TestBatchedRWRMatchesPushOracle); the kernel itself stops once the
// vector is certain, well before this tolerance.
func TestStationaryExactMatchesPowerIteration(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(12)
		g := graph.New(n, n)
		for v := 0; v < n; v++ {
			g.AddNode(graph.Label(r.Intn(3)))
		}
		for v := 1; v < n; v++ {
			g.MustAddEdge(r.Intn(v), v, 0)
		}
		start := r.Intn(n)
		cfg := Defaults()
		cfg.MaxIterations = 2000
		cfg.Tolerance = 1e-13
		power := converged(g, start, cfg)
		exact := StationaryExact(g, start, cfg.Alpha)
		for v := 0; v < n; v++ {
			if math.Abs(power[v]-exact[v]) > 1e-8 {
				t.Fatalf("trial %d node %d: power %g vs exact %g", trial, v, power[v], exact[v])
			}
		}
	}
}

func TestStationaryExactSumsToOne(t *testing.T) {
	g := build([]graph.Label{0, 1, 2, 3}, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	p := StationaryExact(g, 0, 0.25)
	sum := 0.0
	for _, x := range p {
		sum += x
	}
	if math.Abs(sum-1) > 1e-10 {
		t.Errorf("stationary sums to %f", sum)
	}
	// The start node holds the most mass.
	for v := 1; v < g.NumNodes(); v++ {
		if p[v] > p[0] {
			t.Errorf("node %d mass %f exceeds start %f", v, p[v], p[0])
		}
	}
}

func TestWalkOnEmptyFeatureSet(t *testing.T) {
	g := build([]graph.Label{0, 1}, [][2]int{{0, 1}})
	fs := feature.AllEdgeTypesSet(nil, nil) // zero features
	v := Walk(g, 0, fs, Defaults())
	if len(v) != 0 {
		t.Errorf("vector over empty feature set has %d dims", len(v))
	}
}

func TestDiscretizeBinsBounds(t *testing.T) {
	v := Discretize([]float64{-0.5, 2.0}, 10)
	if v[0] != 0 {
		t.Errorf("negative mass bin = %d; want 0", v[0])
	}
	if v[1] != 20 {
		t.Errorf("mass 2.0 bin = %d; want 20", v[1])
	}
	big := Discretize([]float64{100}, 10)
	if big[0] != 255 {
		t.Errorf("overflow bin = %d; want clamp 255", big[0])
	}
}

func TestDatabaseVectorsEmpty(t *testing.T) {
	fs := feature.AllEdgeTypesSet(nil, nil)
	if got, _ := DatabaseVectors(nil, fs, Defaults()); len(got) != 0 {
		t.Errorf("got %d vectors from empty db", len(got))
	}
}

func TestStationaryDisconnectedStart(t *testing.T) {
	// Start node in a 2-node component of a larger graph: mass must stay
	// in the component.
	g := build([]graph.Label{0, 1, 2, 3}, [][2]int{{0, 1}, {2, 3}})
	p := batchedSources(g, edgeSet(g), Defaults())[0].p
	if p[2]+p[3] > 1e-9 {
		t.Errorf("mass leaked to other component: %v", p)
	}
	if p[0]+p[1] < 0.999 {
		t.Errorf("mass lost: %v", p)
	}
}

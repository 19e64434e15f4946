package feature

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphsig/internal/graph"
)

func TestSubVectorOf(t *testing.T) {
	tests := []struct {
		name string
		v, w Vector
		want bool
	}{
		{"table I example v4 ⊆ v3", Vector{1, 0, 1, 0}, Vector{2, 0, 1, 2}, true},
		{"table I example v2 ⊄ v3", Vector{1, 1, 0, 2}, Vector{2, 0, 1, 2}, false},
		{"equal", Vector{1, 2}, Vector{1, 2}, true},
		{"zero ⊆ anything", Vector{0, 0}, Vector{5, 9}, true},
		{"length mismatch", Vector{1}, Vector{1, 2}, false},
	}
	for _, tc := range tests {
		if got := tc.v.SubVectorOf(tc.w); got != tc.want {
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestFloorCeiling(t *testing.T) {
	vs := []Vector{
		{2, 0, 3, 1},
		{4, 0, 0, 2},
		{3, 1, 0, 1},
	}
	floor := Floor(vs)
	want := Vector{2, 0, 0, 1}
	if !floor.Equal(want) {
		t.Errorf("Floor = %v; want %v", floor, want)
	}
}

func TestFloorOfEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Floor(nil)
}

func TestL1DistanceFrom(t *testing.T) {
	// Paper's classifier example: distance from P2=[1 0 0 0] to
	// v1=[1 0 0 2] is 2.
	v := Vector{1, 0, 0, 0}
	w := Vector{1, 0, 0, 2}
	if got := v.L1DistanceFrom(w); got != 2 {
		t.Errorf("distance = %d; want 2", got)
	}
}

func TestL1DistancePanicsOnNonSub(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Vector{3, 0}.L1DistanceFrom(Vector{1, 0})
}

func TestVectorHelpers(t *testing.T) {
	v := Vector{0, 2, 0, 3}
	if v.IsZero() || !(Vector{0, 0}).IsZero() {
		t.Error("IsZero wrong")
	}
	if v.String() != "[0 2 0 3]" {
		t.Errorf("String = %q", v.String())
	}
	c := v.Clone()
	c[0] = 9
	if v[0] != 0 {
		t.Error("Clone aliases")
	}
	if v.Key() == c.Key() {
		t.Error("Key collision after mutation")
	}
}

func randVectors(r *rand.Rand, count, dim int) []Vector {
	vs := make([]Vector, count)
	for i := range vs {
		v := make(Vector, dim)
		for j := range v {
			v[j] = uint8(r.Intn(10))
		}
		vs[i] = v
	}
	return vs
}

func TestPropertyFloorIsLowerBound(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		vs := randVectors(rr, 1+rr.Intn(6), 1+rr.Intn(8))
		floor := Floor(vs)
		for _, v := range vs {
			if !floor.SubVectorOf(v) {
				return false
			}
		}
		// Floor is the greatest lower bound: floor of {floor ∪ vs} = floor.
		again := Floor(append([]Vector{floor}, vs...))
		return again.Equal(floor)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestPropertySubVectorPartialOrder(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		dim := 1 + rr.Intn(6)
		vs := randVectors(rr, 3, dim)
		a, b, c := vs[0], vs[1], vs[2]
		// Reflexivity.
		if !a.SubVectorOf(a) {
			return false
		}
		// Antisymmetry.
		if a.SubVectorOf(b) && b.SubVectorOf(a) && !a.Equal(b) {
			return false
		}
		// Transitivity.
		if a.SubVectorOf(b) && b.SubVectorOf(c) && !a.SubVectorOf(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Error(err)
	}
}

func moleculeDB(alpha *graph.Alphabet) []*graph.Graph {
	c := alpha.Intern("C")
	o := alpha.Intern("O")
	n := alpha.Intern("N")
	rare := alpha.Intern("Sb")
	g1 := graph.New(4, 3)
	for _, l := range []graph.Label{c, c, o, n} {
		g1.AddNode(l)
	}
	g1.MustAddEdge(0, 1, 0)
	g1.MustAddEdge(1, 2, 0)
	g1.MustAddEdge(2, 3, 0)
	g2 := graph.New(3, 2)
	for _, l := range []graph.Label{c, c, rare} {
		g2.AddNode(l)
	}
	g2.MustAddEdge(0, 1, 0)
	g2.MustAddEdge(1, 2, 0)
	return []*graph.Graph{g1, g2}
}

func TestAtomProfile(t *testing.T) {
	alpha := graph.NewAlphabet()
	db := moleculeDB(alpha)
	profile := AtomProfile(db, alpha)
	if len(profile) != 4 {
		t.Fatalf("got %d atom types; want 4", len(profile))
	}
	if profile[0].Name != "C" || profile[0].Count != 4 {
		t.Errorf("top atom = %+v; want C x4", profile[0])
	}
	last := profile[len(profile)-1]
	if last.CumulativePct < 99.999 {
		t.Errorf("final cumulative = %f; want 100", last.CumulativePct)
	}
	for i := 1; i < len(profile); i++ {
		if profile[i].CumulativePct < profile[i-1].CumulativePct {
			t.Error("cumulative not monotone")
		}
		if profile[i].Count > profile[i-1].Count {
			t.Error("profile not sorted by count")
		}
	}
}

func TestChemistrySet(t *testing.T) {
	alpha := graph.NewAlphabet()
	db := moleculeDB(alpha)
	fs := ChemistrySet(db, alpha, 2)
	// Top-2 atoms are C and O (C:4, O:1... N:1, Sb:1 — tie broken by label
	// order, O interned before N). Observed edge types among the top 2:
	// C-C and C-O, both single-bonded = 2 edge features; plus 4 atom
	// features.
	if fs.Len() != 6 {
		t.Fatalf("Len = %d; want 6 (%v)", fs.Len(), fs.Names())
	}
	cL, _ := alpha.Lookup("C")
	oL, _ := alpha.Lookup("O")
	sbL, _ := alpha.Lookup("Sb")
	if _, ok := fs.EdgeFeature(cL, oL, 0); !ok {
		t.Error("C-O edge feature missing")
	}
	if _, ok := fs.EdgeFeature(oL, cL, 0); !ok {
		t.Error("edge feature not symmetric")
	}
	if _, ok := fs.EdgeFeature(cL, sbL, 0); ok {
		t.Error("C-Sb should not be an edge feature")
	}
	if _, ok := fs.AtomFeature(sbL); !ok {
		t.Error("Sb atom feature missing")
	}
	if len(fs.TopAtoms()) != 2 || fs.TopAtoms()[0] != cL {
		t.Errorf("TopAtoms = %v", fs.TopAtoms())
	}
	if fs.TopAtomCoverage() < 0.5 {
		t.Errorf("coverage = %f", fs.TopAtomCoverage())
	}
}

func TestAllEdgeTypesSet(t *testing.T) {
	alpha := graph.NewAlphabet()
	db := moleculeDB(alpha)
	fs := AllEdgeTypesSet(db, alpha)
	// Edge pairs present: C-C, C-O, O-N, C-Sb = 4.
	if fs.Len() != 4 {
		t.Fatalf("Len = %d; want 4 (%v)", fs.Len(), fs.Names())
	}
	cL, _ := alpha.Lookup("C")
	if _, ok := fs.AtomFeature(cL); ok {
		t.Error("AllEdgeTypesSet should have no atom features")
	}
}

func TestGreedySelect(t *testing.T) {
	// Three candidates: two near-duplicates with high importance, one
	// independent with lower importance. With a strong similarity
	// penalty, greedy should pick one duplicate then the independent one.
	cands := []Candidate{
		{Name: "dup1", Importance: 1.0},
		{Name: "dup2", Importance: 0.99},
		{Name: "indep", Importance: 0.5},
	}
	sim := func(i, j int) float64 {
		if (i == 0 && j == 1) || (i == 1 && j == 0) {
			return 1.0
		}
		return 0.0
	}
	got := GreedySelect(cands, 2, 1.0, 1.0, sim)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("selected %v; want [0 2]", got)
	}
}

func TestGreedySelectKLargerThanCandidates(t *testing.T) {
	got := GreedySelect([]Candidate{{Importance: 1}}, 5, 1, 1, func(i, j int) float64 { return 0 })
	if len(got) != 1 {
		t.Errorf("selected %v; want single candidate", got)
	}
}

func TestNewCustomSet(t *testing.T) {
	edges := []EdgeType{
		{A: 2, B: 1, Bond: 0, Name: "friend"},
		{A: 1, B: 2, Bond: 0, Name: "dup"}, // same unordered type: dropped
		{A: 1, B: 1, Bond: 1},
	}
	fs := NewCustomSet(edges, []graph.Label{5, 5, 7}, []string{"user", "", "bot"})
	// 2 distinct edge features + 2 distinct atom features.
	if fs.Len() != 4 {
		t.Fatalf("Len = %d; want 4 (%v)", fs.Len(), fs.Names())
	}
	if i, ok := fs.EdgeFeature(1, 2, 0); !ok || fs.Name(i) != "friend" {
		t.Error("named edge feature lost")
	}
	if _, ok := fs.EdgeFeature(1, 1, 1); !ok {
		t.Error("auto-named edge feature lost")
	}
	if _, ok := fs.EdgeFeature(1, 1, 0); ok {
		t.Error("wrong bond matched")
	}
	if i, ok := fs.AtomFeature(5); !ok || fs.Name(i) != "node:user" {
		t.Error("atom feature naming wrong")
	}
	if _, ok := fs.AtomFeature(7); !ok {
		t.Error("third atom missing")
	}
}

package chem

import (
	"strings"
	"testing"

	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
)

func TestParseSMILESLinear(t *testing.T) {
	g, err := ParseSMILES("CCO")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("CCO: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.NodeLabel(2) != Atom("O") {
		t.Error("third atom not O")
	}
	if g.EdgeLabel(0, 1) != BondSingle {
		t.Error("default bond not single")
	}
}

func TestParseSMILESBondsAndBranches(t *testing.T) {
	// Acetic acid without hydrogens: CC(=O)O
	g, err := ParseSMILES("CC(=O)O")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.EdgeLabel(1, 2) != BondDouble {
		t.Error("C=O not double")
	}
	if g.EdgeLabel(1, 3) != BondSingle {
		t.Error("C-O not single")
	}
	if g.Degree(1) != 3 {
		t.Error("branch point degree wrong")
	}
}

func TestParseSMILESBenzeneForms(t *testing.T) {
	aromatic, err := ParseSMILES("c1ccccc1")
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := ParseSMILES("C1:C:C:C:C:C:1")
	if err != nil {
		t.Fatal(err)
	}
	want := Benzene()
	if !isomorphic(aromatic, want) {
		t.Errorf("lowercase benzene wrong: %s", aromatic)
	}
	if !isomorphic(explicit, want) {
		t.Errorf("explicit benzene wrong: %s", explicit)
	}
}

func TestParseSMILESBrackets(t *testing.T) {
	g, err := ParseSMILES("[Sb](O)(O)O")
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeLabel(0) != Atom("Sb") || g.Degree(0) != 3 {
		t.Fatalf("Sb center wrong: %s", g)
	}
	// Hydrogen counts and charges are ignored.
	g2, err := ParseSMILES("C[NH2]")
	if err != nil {
		t.Fatal(err)
	}
	if g2.NodeLabel(1) != Atom("N") {
		t.Error("[NH2] not parsed as N")
	}
	if _, err := ParseSMILES("[O-]C"); err != nil {
		t.Errorf("charge rejected: %v", err)
	}
}

func TestParseSMILESDisconnected(t *testing.T) {
	g, err := ParseSMILES("CC.O")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 1 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.IsConnected() {
		t.Error("dot-separated components connected")
	}
}

func TestParseSMILESPercentRing(t *testing.T) {
	a, err := ParseSMILES("C%12CCCCC%12")
	if err != nil {
		t.Fatal(err)
	}
	if !isomorphic(a, mustParse(t, "C1CCCCC1")) {
		t.Error("%nn ring differs from digit ring")
	}
}

func mustParse(t *testing.T, s string) *graph.Graph {
	t.Helper()
	g, err := ParseSMILES(s)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestParseSMILESErrors(t *testing.T) {
	bad := []string{
		"C(",     // unclosed branch
		"C)",     // unmatched close
		"(C)",    // branch before atom
		"C1CC",   // unclosed ring
		"1CC",    // ring before atom
		"C==C",   // double bond symbol
		"C-",     // dangling bond
		"Xx",     // unknown bare atom
		"[Xx]",   // unknown element
		"[",      // unclosed bracket
		"[]",     // empty bracket
		"[C@H]",  // stereo unsupported
		"C%1",    // truncated %nn
		"C11",    // self ring bond (duplicate edge/self loop)
		"C1C1",   // ring bond repeating the chain bond
		"C12C12", // two ring bonds between the same atoms
		"=C",     // leading bond
	}
	for _, s := range bad {
		if _, err := ParseSMILES(s); err == nil {
			t.Errorf("no error for %q", s)
		}
	}
}

func TestWriteSMILESRoundTripMotifs(t *testing.T) {
	for _, name := range MotifNames() {
		g := MotifByName(name).Build()
		s, err := WriteSMILES(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, err := ParseSMILES(s)
		if err != nil {
			t.Fatalf("%s: re-parse %q: %v", name, s, err)
		}
		if !isomorphic(g, back) {
			t.Errorf("%s: round trip %q not isomorphic", name, s)
		}
	}
}

func TestWriteSMILESRoundTripGenerated(t *testing.T) {
	gen := NewGenerator(14)
	for i := 0; i < 60; i++ {
		g := gen.Molecule()
		s, err := WriteSMILES(g)
		if err != nil {
			t.Fatalf("molecule %d: %v", i, err)
		}
		back, err := ParseSMILES(s)
		if err != nil {
			t.Fatalf("molecule %d: re-parse %q: %v", i, s, err)
		}
		if !isomorphic(g, back) {
			t.Fatalf("molecule %d: round trip not isomorphic (%s)", i, s)
		}
	}
}

func TestWriteSMILESDisconnected(t *testing.T) {
	g := graph.New(3, 1)
	g.AddNode(Atom("C"))
	g.AddNode(Atom("C"))
	g.AddNode(Atom("O"))
	g.MustAddEdge(0, 1, BondSingle)
	s, err := WriteSMILES(g)
	if err != nil {
		t.Fatal(err)
	}
	back := mustParse(t, s)
	if back.NumNodes() != 3 || back.NumEdges() != 1 {
		t.Errorf("round trip %q changed shape", s)
	}
}

func TestParseSMILESKnownDrugCore(t *testing.T) {
	// The AZT azide chain: C-N=N=N.
	g := mustParse(t, "CN=N=N")
	if g.NumNodes() != 4 {
		t.Fatal("wrong size")
	}
	if g.EdgeLabel(1, 2) != BondDouble || g.EdgeLabel(2, 3) != BondDouble {
		t.Error("azide bonds wrong")
	}
}

func TestSMILESFileRoundTrip(t *testing.T) {
	gen := NewGenerator(15)
	var mols []*graph.Graph
	names := []string{"mol-a", "", "mol-c"}
	for i := 0; i < 3; i++ {
		mols = append(mols, gen.Molecule())
	}
	var sb strings.Builder
	if err := WriteSMILESFile(&sb, mols, names); err != nil {
		t.Fatal(err)
	}
	back, backNames, err := ReadSMILESFile(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 3 {
		t.Fatalf("got %d molecules", len(back))
	}
	for i := range mols {
		if !isomorphic(mols[i], back[i]) {
			t.Errorf("molecule %d not isomorphic after round trip", i)
		}
		if back[i].ID != i {
			t.Errorf("molecule %d has ID %d", i, back[i].ID)
		}
	}
	if backNames[0] != "mol-a" || backNames[1] != "" || backNames[2] != "mol-c" {
		t.Errorf("names = %v", backNames)
	}
}

func TestReadSMILESFileCommentsAndErrors(t *testing.T) {
	in := "# header comment\nCCO ethanol\n\nc1ccccc1 benzene\n"
	graphs, names, err := ReadSMILESFile(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 2 || names[0] != "ethanol" || names[1] != "benzene" {
		t.Fatalf("graphs=%d names=%v", len(graphs), names)
	}
	if _, _, err := ReadSMILESFile(strings.NewReader("C(\n")); err == nil {
		t.Error("bad SMILES accepted")
	}
}

// isomorphic reports whether a and b are isomorphic as labeled graphs:
// with equal node and edge counts, an embedding of a in b maps nodes
// and edges bijectively.
func isomorphic(a, b *graph.Graph) bool {
	return a.NumNodes() == b.NumNodes() && a.NumEdges() == b.NumEdges() && isomorph.SubgraphIsomorphic(a, b)
}

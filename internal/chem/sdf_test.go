package chem

import (
	"strings"
	"testing"

	"graphsig/internal/graph"
)

func TestSDFRoundTripMotifs(t *testing.T) {
	for _, name := range MotifNames() {
		g := MotifByName(name).Build()
		var sb strings.Builder
		if err := WriteSDF(&sb, []*graph.Graph{g}, []string{name}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		back, names, err := ReadSDF(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(back) != 1 || names[0] != name {
			t.Fatalf("%s: got %d records, names %v", name, len(back), names)
		}
		if !isomorphic(g, back[0]) {
			t.Errorf("%s: round trip not isomorphic", name)
		}
	}
}

func TestSDFRoundTripGenerated(t *testing.T) {
	gen := NewGenerator(70)
	var mols []*graph.Graph
	var names []string
	for i := 0; i < 25; i++ {
		mols = append(mols, gen.Molecule())
		names = append(names, "")
	}
	var sb strings.Builder
	if err := WriteSDF(&sb, mols, names); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadSDF(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(mols) {
		t.Fatalf("got %d records; want %d", len(back), len(mols))
	}
	for i := range mols {
		if back[i].ID != i {
			t.Fatalf("record %d has ID %d", i, back[i].ID)
		}
		if !isomorphic(mols[i], back[i]) {
			t.Fatalf("record %d not isomorphic after round trip", i)
		}
	}
}

// TestReadSDFHandWritten parses a hand-authored V2000 record with data
// fields, as NCI downloads contain.
func TestReadSDFHandWritten(t *testing.T) {
	const sdf = `NSC1234
  SomeTool 3D

  3  2  0  0  0  0  0  0  0  0999 V2000
    0.0000    0.0000    0.0000 C   0  0  0  0  0  0  0  0  0  0  0  0
    1.0000    0.0000    0.0000 O   0  0  0  0  0  0  0  0  0  0  0  0
    2.0000    0.0000    0.0000 N   0  0  0  0  0  0  0  0  0  0  0  0
  1  2  2  0  0  0  0
  2  3  1  0  0  0  0
M  END
> <ACTIVITY>
CA

$$$$
`
	graphs, names, err := ReadSDF(strings.NewReader(sdf))
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 1 || names[0] != "NSC1234" {
		t.Fatalf("records=%d names=%v", len(graphs), names)
	}
	g := graphs[0]
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if g.NodeLabel(1) != Atom("O") || g.EdgeLabel(0, 1) != BondDouble {
		t.Error("atom block or bond types wrong")
	}
	if g.EdgeLabel(1, 2) != BondSingle {
		t.Error("second bond wrong")
	}
}

func TestReadSDFErrors(t *testing.T) {
	bad := []string{
		"title\nprog\ncomment\n",                     // missing counts
		"title\nprog\ncomment\nxx\n",                 // short counts line
		"title\nprog\ncomment\n  1  0  0999 V2000\n", // truncated atom block
		"title\nprog\ncomment\n  1  1  0999 V2000\n    0.0000    0.0000    0.0000 C   0\n",                          // truncated bonds
		"title\nprog\ncomment\n  1  0  0999 V2000\n    0.0000    0.0000    0.0000 Xx  0\nM  END\n$$$$\n",            // unknown element
		"title\nprog\ncomment\n  2  1  0999 V2000\n    0.0 0.0 0.0 C\n    0.0 0.0 0.0 C\n  1  5  1\nM  END\n$$$$\n", // bond out of range
		"title\nprog\ncomment\n  2  1  0999 V2000\n    0.0 0.0 0.0 C\n    0.0 0.0 0.0 C\n  1  2  9\nM  END\n$$$$\n", // bad bond type
	}
	for i, s := range bad {
		if _, _, err := ReadSDF(strings.NewReader(s)); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

func TestReadSDFEmpty(t *testing.T) {
	graphs, names, err := ReadSDF(strings.NewReader(""))
	if err != nil || len(graphs) != 0 || len(names) != 0 {
		t.Errorf("empty stream: %d graphs, err %v", len(graphs), err)
	}
}

func TestReadSDFMissingSeparatorAtEOF(t *testing.T) {
	// A final record without the $$$$ separator still parses.
	var sb strings.Builder
	g := Benzene()
	if err := WriteSDF(&sb, []*graph.Graph{g}, []string{"benzene"}); err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSuffix(sb.String(), "$$$$\n")
	graphs, _, err := ReadSDF(strings.NewReader(body))
	if err != nil || len(graphs) != 1 {
		t.Fatalf("got %d graphs, err %v", len(graphs), err)
	}
}

func TestReadSDFRecordsDataFields(t *testing.T) {
	const sdf = `NSC1
  tool

  1  0  0  0  0  0  0  0  0  0999 V2000
    0.0 0.0 0.0 C
M  END
> <ACTIVITY>
CA

> <NSC>
1

$$$$
NSC2
  tool

  1  0  0  0  0  0  0  0  0  0999 V2000
    0.0 0.0 0.0 O
M  END
> <ACTIVITY>
CI

$$$$
`
	records, err := ReadSDFRecords(strings.NewReader(sdf))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("got %d records", len(records))
	}
	if records[0].Data["ACTIVITY"] != "CA" || records[0].Data["NSC"] != "1" {
		t.Errorf("record 0 data = %v", records[0].Data)
	}
	if records[1].Data["ACTIVITY"] != "CI" {
		t.Errorf("record 1 data = %v", records[1].Data)
	}
}

func TestLoadSDFScreen(t *testing.T) {
	// Synthesize a small screen: 10 molecules, 3 flagged active via the
	// NCI-style ACTIVITY field (CA = confirmed active, CM = moderate).
	gen := NewGenerator(80)
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		m := gen.Molecule()
		if err := WriteSDF(&sb, []*graph.Graph{m}, []string{"NSC" + string(rune('0'+i))}); err != nil {
			t.Fatal(err)
		}
		// Re-open the record: splice the activity field before $$$$.
		s := sb.String()
		idx := strings.LastIndex(s, "$$$$\n")
		act := "CI"
		if i < 2 {
			act = "CA"
		} else if i == 2 {
			act = "CM"
		}
		sb.Reset()
		sb.WriteString(s[:idx])
		sb.WriteString("> <ACTIVITY>\n" + act + "\n\n$$$$\n")
	}
	d, err := LoadSDFScreen(strings.NewReader(sb.String()), "toy", "ACTIVITY", "CA", "CM")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Graphs) != 10 || d.NumActive() != 3 {
		t.Fatalf("graphs=%d actives=%d; want 10,3", len(d.Graphs), d.NumActive())
	}
	if !d.Active[0] || !d.Active[2] || d.Active[5] {
		t.Errorf("activity flags wrong: %v", d.Active)
	}
	if d.Spec.Name != "toy" {
		t.Errorf("name = %q", d.Spec.Name)
	}
}

package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadDBBasic(t *testing.T) {
	const in = `
% comment
t # 0
v 0 C
v 1 O
e 0 1 double
t # 7
v 0 N
`
	alpha := NewAlphabet()
	graphs, err := ReadDB(strings.NewReader(in), alpha)
	if err != nil {
		t.Fatal(err)
	}
	if len(graphs) != 2 {
		t.Fatalf("got %d graphs; want 2", len(graphs))
	}
	g := graphs[0]
	if g.ID != 0 || g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("graph 0: %s", g)
	}
	if alpha.Name(g.NodeLabel(1)) != "O" {
		t.Errorf("node 1 label = %q; want O", alpha.Name(g.NodeLabel(1)))
	}
	if graphs[1].ID != 7 {
		t.Errorf("graph 1 id = %d; want 7", graphs[1].ID)
	}
}

func TestReadDBErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"vertex before header", "v 0 C\n"},
		{"edge before header", "e 0 1 0\n"},
		{"sparse vertex ids", "t # 0\nv 1 C\n"},
		{"edge out of range", "t # 0\nv 0 C\ne 0 5 0\n"},
		{"self loop", "t # 0\nv 0 C\ne 0 0 0\n"},
		{"duplicate edge", "t # 0\nv 0 C\nv 1 C\ne 0 1 0\ne 1 0 0\n"},
		{"bad record", "t # 0\nx 1 2\n"},
		{"non-integer label without alphabet", "t # 0\nv 0 C\n"},
		{"short edge line", "t # 0\nv 0 0\nv 1 0\ne 0 1\n"},
	}
	for _, tc := range tests {
		var alpha *Alphabet
		if !strings.Contains(tc.name, "alphabet") {
			alpha = NewAlphabet()
		}
		if _, err := ReadDB(strings.NewReader(tc.in), alpha); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		var graphs []*Graph
		for i := 0; i < 1+rr.Intn(4); i++ {
			g := randomConnectedGraph(rr, 1+rr.Intn(12), rr.Intn(6), 5, 3)
			g.ID = i
			graphs = append(graphs, g)
		}
		var sb strings.Builder
		if err := WriteDB(&sb, graphs, nil); err != nil {
			return false
		}
		back, err := ReadDB(strings.NewReader(sb.String()), nil)
		if err != nil || len(back) != len(graphs) {
			return false
		}
		for i, g := range graphs {
			h := back[i]
			if h.ID != g.ID || h.NumNodes() != g.NumNodes() || h.NumEdges() != g.NumEdges() {
				return false
			}
			for v := 0; v < g.NumNodes(); v++ {
				if h.NodeLabel(v) != g.NodeLabel(v) {
					return false
				}
			}
			for _, e := range g.Edges() {
				if h.EdgeLabel(e.From, e.To) != e.Label {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestAlphabet(t *testing.T) {
	a := NewAlphabet()
	c := a.Intern("C")
	o := a.Intern("O")
	if a.Intern("C") != c {
		t.Error("Intern not idempotent")
	}
	if c == o {
		t.Error("distinct symbols share a label")
	}
	if a.Name(c) != "C" || a.Name(o) != "O" {
		t.Error("Name round trip failed")
	}
	if _, ok := a.Lookup("N"); ok {
		t.Error("Lookup found missing symbol")
	}
	if a.Len() != 2 {
		t.Errorf("Len = %d; want 2", a.Len())
	}
	if got := a.Name(Label(99)); got != "#99" {
		t.Errorf("Name(99) = %q; want #99", got)
	}
}

func TestWriteDOT(t *testing.T) {
	alpha := NewAlphabet()
	g := New(3, 2)
	g.AddNode(alpha.Intern("C"))
	g.AddNode(alpha.Intern("O"))
	g.AddNode(alpha.Intern("N"))
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 0)
	var sb strings.Builder
	if err := WriteDOT(&sb, g, "mol", alpha, func(l Label) string {
		if l == 1 {
			return "="
		}
		return "-"
	}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`graph "mol" {`, `n0 [label="C"]`, `n1 -- n2 [label="-"]`, `n0 -- n1 [label="="]`} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// Determinism.
	var sb2 strings.Builder
	WriteDOT(&sb2, g, "mol", alpha, nil)
	var sb3 strings.Builder
	WriteDOT(&sb3, g, "mol", alpha, nil)
	if sb2.String() != sb3.String() {
		t.Error("DOT output not deterministic")
	}
}

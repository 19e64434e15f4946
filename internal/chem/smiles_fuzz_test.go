package chem

import "testing"

// FuzzParseSMILES: arbitrary input must never panic, and accepted input
// must survive a write/parse round trip up to isomorphism.
func FuzzParseSMILES(f *testing.F) {
	f.Add("CCO")
	f.Add("c1ccccc1")
	f.Add("CC(=O)O")
	f.Add("[Sb](O)(O)O")
	f.Add("C%12CCCCC%12")
	f.Add("CC.O")
	f.Add("C1:C:C:C:C:C:1")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 200 {
			return
		}
		g, err := ParseSMILES(input)
		if err != nil {
			return
		}
		s, err := WriteSMILES(g)
		if err != nil {
			return // very ring-dense inputs may exceed closure numbering
		}
		back, err := ParseSMILES(s)
		if err != nil {
			t.Fatalf("own output %q rejected: %v", s, err)
		}
		if g.NumNodes() != back.NumNodes() || g.NumEdges() != back.NumEdges() {
			t.Fatalf("round trip changed shape: %q -> %q", input, s)
		}
		if g.NumNodes() <= 12 && !isomorphic(g, back) {
			t.Fatalf("round trip not isomorphic: %q -> %q", input, s)
		}
	})
}

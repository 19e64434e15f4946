package dfscode

import "testing"

// The rightmost-path extension metadata the closed miner consumes: the
// rightmost vertex (the tail of RightmostPath) is the last-discovered
// DFS index, HasEdge the pattern-adjacency oracle over code entries.
func TestRightmostVertexAndHasEdge(t *testing.T) {
	// 0-1-2 path plus backward edge (2,0): a triangle.
	code := Code{
		{I: 0, J: 1, LI: 1, LE: 0, LJ: 2},
		{I: 1, J: 2, LI: 2, LE: 0, LJ: 3},
		{I: 2, J: 0, LI: 3, LE: 0, LJ: 1},
	}
	if rm := code.RightmostPath(); rm[len(rm)-1] != code.NumNodes()-1 {
		t.Fatalf("RightmostPath tail %d, want the last-discovered vertex %d", rm[len(rm)-1], code.NumNodes()-1)
	}
	for _, tc := range []struct {
		i, j int
		want bool
	}{
		{0, 1, true}, {1, 0, true}, // forward edge, both orientations
		{2, 0, true}, {0, 2, true}, // backward edge, both orientations
		{1, 2, true},
		{0, 3, false}, {1, 3, false},
	} {
		if got := code.HasEdge(tc.i, tc.j); got != tc.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", tc.i, tc.j, got, tc.want)
		}
	}
	if Code(nil).HasEdge(0, 1) {
		t.Errorf("empty code HasEdge(0,1) = true")
	}
}

package core

// Allocation contract of a group's window read: once the sweep has
// filled the window table, a group's windows cost one allocation — the
// slice that holds them — and nothing per window. Groups share regions
// heavily, so a read that allocated per window would charge every group
// after the first for nothing.

import (
	"testing"

	"graphsig/internal/runctl"
)

func TestWindowTableReadOneAlloc(t *testing.T) {
	db, groups, cfg := sweepFixture(t)
	wt := newWindowTable(Slice(db).Graph, groups, cfg)
	ctl := runctl.New(runctl.Options{})
	if err := wt.sweep(2, ctl); err != nil {
		t.Fatalf("sweep over an in-memory database: %v", err)
	}
	for gi := range groups {
		if allocs := testing.AllocsPerRun(100, func() {
			wt.windows(gi)
		}); allocs != 1 {
			t.Errorf("group %d window read: %v allocs per run; want 1 (its window slice)", gi, allocs)
		}
	}
}

package core

// Allocation contract of the window cache's hit path: once a region is
// cut, re-requesting it is a map probe plus two no-op counter bumps —
// no heap traffic. Groups share regions heavily, so a hit path that
// allocated would charge every group after the first for nothing.

import (
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/obs"
)

func TestWindowCacheHitPathZeroAllocs(t *testing.T) {
	db := plantedDB(8, 2, chem.SbCore())
	cache := newWindowCache(Slice(db).Graph, 3, obs.NewRegistry())
	// Populate: every key below is a miss exactly once.
	for gid := range db {
		for node := 0; node < db[gid].NumNodes(); node += 3 {
			cache.window(gid, node)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for gid := range db {
			for node := 0; node < db[gid].NumNodes(); node += 3 {
				cache.window(gid, node)
			}
		}
	}); allocs != 0 {
		t.Errorf("window cache hit path: %v allocs per run; want 0", allocs)
	}
}

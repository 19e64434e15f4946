package core

import (
	"fmt"
	"runtime"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/feature"
	"graphsig/internal/runctl"
)

// BenchmarkGroupMine times Phase 3 alone — window cutting plus maximal
// FSM over the vector groups — at Parallelism 1 versus GOMAXPROCS.
// Phases 1–2 run once outside the timer so the comparison isolates the
// group-mining pool; each iteration still builds its own window cache,
// as a real mine does. On a multi-core runner the parallel variant
// should run ≥ 2× faster; TestMineParallelismInvariance separately
// proves the answer set is identical.
func BenchmarkGroupMine(b *testing.B) {
	db := plantedDB(60, 12, chem.SbCore())
	cfg := testConfig()
	fillConfig(&cfg)
	setup := runctl.New(runctl.Options{})
	fs := cfg.FeatureSet
	if fs == nil {
		fs = feature.ChemistrySet(db, cfg.Alphabet, cfg.TopAtoms)
	}
	vectors := computeVectors(db, fs, cfg, setup)
	groups := significantVectorGroups(vectors, cfg, setup)
	if setup.Stopped() || len(groups) == 0 {
		b.Fatalf("setup produced %d groups (stopped=%v)", len(groups), setup.Stopped())
	}
	for _, p := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallelism-%d", p), func(b *testing.B) {
			run := cfg
			run.Parallelism = p
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				outcomes, err := mineAll(Slice(db).Graph, groups, run, runctl.New(runctl.Options{}))
				if launched := doneCount(outcomes); err != nil || launched != len(groups) {
					b.Fatalf("mined %d of %d groups (%v)", launched, len(groups), err)
				}
			}
		})
	}
}

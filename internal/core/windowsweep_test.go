package core

// The Phase-3 window sweep cuts every window the groups will look up in
// one pass over the database in position order, before any group is
// mined. These tests pin what it buys — each position is fetched at
// most once — and what it must not change: the window cache's counters,
// the read-error contract and the panic contract.

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
	"graphsig/internal/rwr"
)

// sweepFixture returns a database, its Phase-2 groups, and the config
// they were mined under. MaxGroupSize is small enough that some groups
// are subsampled, so the sweep's node selection is exercised.
func sweepFixture(t *testing.T) ([]*graph.Graph, []VectorGroup, Config) {
	t.Helper()
	db := plantedDB(40, 10, chem.SbCore())
	cfg := Normalized(testConfig())
	cfg.MaxGroupSize = 12
	groups := SignificantGroups(ComputeVectors(db, BuildFeatureSet(db, cfg), cfg), cfg)
	subsampled := false
	for _, g := range groups {
		subsampled = subsampled || len(g.Nodes) > cfg.MaxGroupSize
	}
	if len(groups) < 4 || !subsampled {
		t.Fatalf("%d groups, subsampled=%v; the fixture is too small to test the sweep", len(groups), subsampled)
	}
	return db, groups, cfg
}

func canonicals(subs []*Subgraph) []string {
	out := make([]string, len(subs))
	for i, s := range subs {
		out[i] = fmt.Sprintf("%s|%v|%d|%d", s.Canonical, s.VectorLogPValue, s.GroupSize, s.GroupSupport)
	}
	return out
}

// TestPhase3FetchesEachPositionOnce: at any parallelism, Phase 3 reads
// each database position at most once, and the window cache still
// books one miss per distinct window and one hit per repeat lookup.
func TestPhase3FetchesEachPositionOnce(t *testing.T) {
	db, groups, cfg := sweepFixture(t)
	lookups := 0
	distinct := map[[2]int]bool{}
	for _, g := range groups {
		for _, nv := range groupNodes(g, cfg) {
			lookups++
			distinct[[2]int{nv.GraphID, nv.NodeID}] = true
		}
	}
	var want []string
	for _, par := range []int{1, 4} {
		reads := make([]atomic.Int64, len(db))
		reg := obs.NewRegistry()
		pcfg := cfg
		pcfg.Parallelism = par
		pcfg.Metrics = reg
		subs, _ := MinePatterns(func(i int) *graph.Graph {
			reads[i].Add(1)
			return db[i]
		}, groups, pcfg)
		total := int64(0)
		for i := range reads {
			n := reads[i].Load()
			if n > 1 {
				t.Errorf("parallelism %d: position %d fetched %d times", par, i, n)
			}
			total += n
		}
		if total == 0 {
			t.Fatalf("parallelism %d: Phase 3 read nothing", par)
		}
		if got := reg.Counter(obs.MWindowCacheMisses).Value(); got != int64(len(distinct)) {
			t.Errorf("parallelism %d: %d window misses, want %d (one per distinct window)", par, got, len(distinct))
		}
		if got := reg.Counter(obs.MWindowCacheHits).Value(); got != int64(lookups-len(distinct)) {
			t.Errorf("parallelism %d: %d window hits, want %d (one per repeat lookup)", par, got, lookups-len(distinct))
		}
		got := canonicals(subs)
		if want == nil {
			want = got
			continue
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("parallelism %d: patterns differ from parallelism 1", par)
		}
	}
}

// mineAll runs mineGroups over fresh outcomes and returns them with
// the sweep's error.
func mineAll(fetch func(int) (*graph.Graph, error), groups []VectorGroup, cfg Config, ctl *runctl.Controller) ([]groupOutcome, error) {
	outcomes := make([]groupOutcome, len(groups))
	_, err := mineGroups(fetch, groups, cfg, ctl, outcomes, nil)
	return outcomes, err
}

// doneCount counts the outcomes marked done.
func doneCount(outcomes []groupOutcome) int {
	n := 0
	for _, o := range outcomes {
		if o.done {
			n++
		}
	}
	return n
}

// TestSweepReadErrorFailsBeforeAnyGroup: when the sweep fails to read
// graphs, Phase 3 fails with the error of the lowest failing database
// position before any group launches, so no group is marked done, and
// each failed graph is read at most once — the graph below the lowest
// failure has been read, so that failure is always found.
func TestSweepReadErrorFailsBeforeAnyGroup(t *testing.T) {
	db, groups, cfg := sweepFixture(t)
	var needed []int
	for gid := range db {
		for _, g := range groups {
			if slices.ContainsFunc(groupNodes(g, cfg), func(nv rwr.NodeVector) bool { return nv.GraphID == gid }) {
				needed = append(needed, gid)
				break
			}
		}
	}
	if len(needed) < 4 {
		t.Fatalf("the groups read %d graphs; the test needs several", len(needed))
	}
	// Two failing graphs, the lower one past the first few reads, so
	// that at parallelism 4 the higher one may be claimed first.
	low, high := needed[len(needed)/2], needed[len(needed)/2+1]
	errLow, errHigh := errors.New("injected read failure (low)"), errors.New("injected read failure (high)")
	for _, par := range []int{1, 4} {
		var lowReads, highReads atomic.Int64
		fetch := func(i int) (*graph.Graph, error) {
			switch i {
			case low:
				lowReads.Add(1)
				return nil, errLow
			case high:
				highReads.Add(1)
				return nil, errHigh
			}
			return db[i], nil
		}
		cfg.Parallelism = par
		outcomes, err := mineAll(fetch, groups, cfg, runctl.New(runctl.Options{}))
		if !errors.Is(err, errLow) {
			t.Errorf("parallelism %d: sweep error = %v; want graph %d's injected failure", par, err, low)
		}
		if n := doneCount(outcomes); n != 0 {
			t.Errorf("parallelism %d: %d groups marked done after a failed sweep; want 0", par, n)
		}
		if n := lowReads.Load(); n != 1 {
			t.Errorf("parallelism %d: lowest failing graph read %d times; want 1", par, n)
		}
		if n := highReads.Load(); n > 1 {
			t.Errorf("parallelism %d: higher failing graph read %d times; want at most 1", par, n)
		}
		_, _, err = minePatterns(fetch, "", groups, cfg, runctl.New(runctl.Options{}))
		if !errors.Is(err, errLow) || !strings.Contains(err.Error(), fmt.Sprintf("graph %d:", low)) {
			t.Errorf("parallelism %d: minePatterns error = %v; want graph %d's injected failure", par, err, low)
		}
	}
}

// TestSweepCutPanicLeftToGroupWorker: a panic while the sweep cuts a
// graph's windows is not the sweep's to report. It is stored in that
// graph's slots of the window table; the group worker that reads one
// re-raises it, and its own recovery books the panic on the group
// stage. Every other group is mined as usual.
func TestSweepCutPanicLeftToGroupWorker(t *testing.T) {
	db, groups, cfg := sweepFixture(t)
	bad := groups[0].Nodes[0].GraphID
	// An empty graph makes CutGraph index out of range.
	fetch := func(i int) *graph.Graph {
		if i == bad {
			return graph.New(0, 0)
		}
		return db[i]
	}
	cfg.Parallelism = 2
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	cfg.Ctl = runctl.New(runctl.Options{Metrics: reg})
	subs, stats := MinePatterns(fetch, groups, cfg)
	if stats.GroupErrors == 0 {
		t.Fatal("no group error for the group whose window cut panicked")
	}
	if len(subs) == 0 {
		t.Error("one panicking graph emptied the whole answer set")
	}
	if n := reg.Counter(obs.MPanics, "stage", string(runctl.StageGroup)).Value(); n == 0 {
		t.Error("no panic booked on the group stage")
	}
	for _, st := range cfg.Ctl.Report().Stages {
		if st.Reason == runctl.ReasonPanic && !strings.Contains(st.Detail, "worker") {
			t.Errorf("panic booked outside a group worker: %q", st.Detail)
		}
	}
}

// TestStopDuringSweepLaunchesNoGroup: a stop while the sweep is cutting
// leaves slots uncut, and no group may read them. The stop cause is
// never cleared, so the group fan-out after the sweep launches nothing:
// the run is truncated with reason cancel and books no window read.
func TestStopDuringSweepLaunchesNoGroup(t *testing.T) {
	db, groups, cfg := sweepFixture(t)
	graphs := len(newWindowTable(Slice(db).Graph, groups, cfg).runs) - 1
	for _, par := range []int{1, 4} {
		for _, k := range []int64{1, 2, 5, int64(graphs)} {
			reg := obs.NewRegistry()
			ctl := runctl.New(runctl.Options{Metrics: reg})
			var reads atomic.Int64
			fetch := func(i int) (*graph.Graph, error) {
				if reads.Add(1) == k {
					ctl.Cancel("stop during the window sweep")
				}
				return db[i], nil
			}
			pcfg := cfg
			pcfg.Parallelism = par
			outcomes, err := mineAll(fetch, groups, pcfg, ctl)
			if err != nil {
				t.Fatal(err)
			}
			if launched := doneCount(outcomes); launched != 0 {
				t.Errorf("parallelism %d, stop at read %d: %d groups launched; want 0", par, k, launched)
			}
			if d := ctl.Report(); !d.Truncated || d.Reason != runctl.ReasonCancel {
				t.Errorf("parallelism %d, stop at read %d: degradation = %+v; want a cancel", par, k, d)
			}
			hits, misses := reg.Counter(obs.MWindowCacheHits).Value(), reg.Counter(obs.MWindowCacheMisses).Value()
			if hits != 0 || misses != 0 {
				t.Errorf("parallelism %d, stop at read %d: %d hits, %d misses booked; want none", par, k, hits, misses)
			}
		}
	}
}

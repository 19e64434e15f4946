package core

// Fault injection inside the subtrees an FVMine label search gives to
// idle pool workers (fvmine.Team): a trip or a panic that fires there
// must be booked like one in the label's own search.

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphsig/internal/chem"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
	"graphsig/internal/rwr"
)

// inDonatedSubtree reports whether the calling goroutine is searching a
// subtree another label search gave away.
func inDonatedSubtree() bool {
	buf := make([]byte, 32<<10)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "fvmine.(*subtree).run")
}

// donatedFault returns a controller whose hook calls fire at the first
// checkpoint a donated subtree consults, and the flag that records it.
// Every checkpoint is consulted (CheckInterval 1), so the hook sees
// every FVMine state.
func donatedFault(reg *obs.Registry, fire func() bool) (*runctl.Controller, *atomic.Bool) {
	var fired atomic.Bool
	ctl := runctl.New(runctl.Options{
		CheckInterval: 1,
		Metrics:       reg,
		Hook: func(int64) bool {
			if fired.Load() || !inDonatedSubtree() || !fired.CompareAndSwap(false, true) {
				return false
			}
			return fire()
		},
	})
	return ctl, &fired
}

// withDonation runs attempt until its fault fired inside a donated
// subtree: whether a search gives a subtree away depends on when a
// worker runs out of label groups, so a run may finish without one.
func withDonation(t *testing.T, attempt func() (fired bool)) {
	t.Helper()
	for try := 0; try < 5; try++ {
		if attempt() {
			return
		}
	}
	t.Fatal("no label search gave a subtree away in 5 mines")
}

// settleGoroutines waits for the goroutine count to return to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after the mine; %d before", n, base)
	}
}

// TestDonatedSubtreeTrip cancels a mine at a checkpoint inside a
// donated subtree, at parallelism 2 and 4: the run stops in FVMine with
// the hook's cancel, every stage span balances, and no worker is left.
func TestDonatedSubtreeTrip(t *testing.T) {
	db := chem.GenerateN(chem.CancerSpecs()[1], 400).Graphs
	for _, p := range []int{2, 4} {
		withDonation(t, func() bool {
			base := runtime.NumGoroutine()
			reg := obs.NewRegistry()
			ctl, fired := donatedFault(reg, func() bool { return true })
			cfg := testConfig()
			cfg.Parallelism, cfg.Ctl = p, ctl
			res := Mine(db, cfg)
			settleGoroutines(t, base)
			if !fired.Load() {
				return false
			}
			d := res.Degradation
			if !res.Truncated || d.Reason != runctl.ReasonCancel || d.Stage != runctl.StageFVMine {
				t.Errorf("parallelism %d: degradation = %s; want a cancel in fvmine", p, d)
			}
			snap := reg.Snapshot()
			if deg := assertStageBalance(t, snap); deg == 0 {
				t.Errorf("parallelism %d: truncated run booked no degraded stage span", p)
			}
			if got := degradationTotal(snap); got != 1 {
				t.Errorf("parallelism %d: degradations counted %d times, want exactly once", p, got)
			}
			return true
		})
	}
}

// TestDonatedSubtreePanic panics inside a donated subtree, at
// parallelism 2 and 4. Exactly one panic is booked, against the label
// whose search gave the subtree away, and only that label's vectors are
// missing; the other labels' match a clean mine bit for bit. Through
// Mine, the stage spans balance and no worker is left.
func TestDonatedSubtreePanic(t *testing.T) {
	db := chem.GenerateN(chem.CancerSpecs()[1], 400).Graphs
	cfg := testConfig()
	fs := BuildFeatureSet(db, cfg)
	vectors, _ := rwr.DatabaseVectors(db, fs, rwr.Config{Alpha: cfg.Alpha, Bins: cfg.Bins})
	cfg.Parallelism = 1
	clean := significantVectorGroups(vectors, cfg, nil)
	for _, p := range []int{2, 4} {
		cfg.Parallelism = p
		withDonation(t, func() bool {
			base := runtime.NumGoroutine()
			reg := obs.NewRegistry()
			ctl, fired := donatedFault(reg, func() bool { panic("injected subtree fault") })
			got := significantVectorGroups(vectors, cfg, ctl)
			settleGoroutines(t, base)
			if !fired.Load() {
				return false
			}
			if n := reg.Snapshot().CounterValue(obs.MPanics, "stage", string(runctl.StageFVMine)); n != 1 {
				t.Errorf("parallelism %d: panics{fvmine} = %d; want 1", p, n)
			}
			var reports []runctl.StageReport
			for _, st := range ctl.Report().Stages {
				if st.Reason == runctl.ReasonPanic {
					reports = append(reports, st)
				}
			}
			if len(reports) != 1 || !strings.Contains(reports[0].Err, "injected subtree fault") {
				t.Fatalf("parallelism %d: panic reports %+v; want one for the injected fault", p, reports)
			}
			var dropped graph.Label
			found := false
			for _, g := range clean {
				if reports[0].Detail == fmt.Sprintf("label %d group worker", g.Label) {
					dropped, found = g.Label, true
				}
			}
			if !found {
				t.Fatalf("parallelism %d: panic detail %q names no label with vectors", p, reports[0].Detail)
			}
			var want []VectorGroup
			for _, g := range clean {
				if g.Label != dropped {
					want = append(want, g)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("parallelism %d: %d vector groups after dropping label %d; want %d", p, len(got), dropped, len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Label != w.Label || !g.Sig.Vec.Equal(w.Sig.Vec) ||
					math.Float64bits(g.Sig.LogPValue) != math.Float64bits(w.Sig.LogPValue) || len(g.Nodes) != len(w.Nodes) {
					t.Fatalf("parallelism %d: group %d is label %d %v; want label %d %v", p, i, g.Label, g.Sig.Vec, w.Label, w.Sig.Vec)
				}
			}
			return true
		})
		withDonation(t, func() bool {
			base := runtime.NumGoroutine()
			reg := obs.NewRegistry()
			ctl, fired := donatedFault(reg, func() bool { panic("injected subtree fault") })
			mcfg := testConfig()
			mcfg.Parallelism, mcfg.Ctl = p, ctl
			res := Mine(db, mcfg)
			settleGoroutines(t, base)
			if !fired.Load() {
				return false
			}
			if !res.Truncated || res.Degradation.Reason != runctl.ReasonPanic {
				t.Errorf("parallelism %d: degradation = %s; want panic", p, res.Degradation)
			}
			snap := reg.Snapshot()
			assertStageBalance(t, snap)
			if n := snap.CounterValue(obs.MPanics, "stage", string(runctl.StageFVMine)); n != 1 {
				t.Errorf("parallelism %d: panics{fvmine} = %d; want 1", p, n)
			}
			if got := degradationTotal(snap); got != 0 {
				t.Errorf("parallelism %d: isolated panic booked %d run-level degradations, want 0", p, got)
			}
			return true
		})
	}
}

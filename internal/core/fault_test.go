package core

// Fault-injection suite for the unified run controller: every pipeline
// stage must unwind cleanly when the controller trips at an arbitrary
// checkpoint, return a structurally valid partial result, and populate
// the degradation report. The injection vehicle is runctl's Hook, which
// cancels the run at the k-th shared-state consultation; CheckInterval 1
// removes amortization so the trip point is deterministic.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"graphsig/internal/chem"
	"graphsig/internal/feature"
	"graphsig/internal/fsg"
	"graphsig/internal/fvmine"
	"graphsig/internal/graph"
	"graphsig/internal/gspan"
	"graphsig/internal/isomorph"
	"graphsig/internal/leap"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
	"graphsig/internal/rwr"
)

// hookCtl returns a controller that cancels at the k-th checkpoint.
func hookCtl(k int64) *runctl.Controller {
	return runctl.New(runctl.Options{
		CheckInterval: 1,
		Hook:          func(check int64) bool { return check >= k },
	})
}

// faultVectors builds a feature-vector database diverse enough that
// FVMine explores well past the deepest injection point (k=25).
func faultVectors(n int) []feature.Vector {
	out := make([]feature.Vector, n)
	for i := range out {
		v := make(feature.Vector, 8)
		for j := range v {
			v[j] = uint8(((i*7 + j*13) ^ (i >> 2)) % 6)
		}
		out[i] = v
	}
	return out
}

// TestStageFaultInjection drives each stage with a controller that trips
// at the k-th checkpoint and asserts the stage unwinds with a valid
// partial result and a cancel verdict on the controller.
func TestStageFaultInjection(t *testing.T) {
	mols := plantedDB(24, 6, chem.SbCore())
	stages := []struct {
		name string
		// run executes the stage under ctl and verifies its partial
		// result is structurally valid, returning an error string ("" ok).
		run func(t *testing.T, ctl *runctl.Controller)
	}{
		{"fvmine", func(t *testing.T, ctl *runctl.Controller) {
			res := fvmine.Mine(faultVectors(40), fvmine.Options{
				MinSupport: 2, MaxPvalue: 0.9, Ctl: ctl,
			})
			if !res.Truncated {
				t.Error("fvmine: not flagged truncated")
			}
			if res.StopReason != runctl.ReasonCancel {
				t.Errorf("fvmine: StopReason = %q", res.StopReason)
			}
			for _, s := range res.Vectors {
				if s.Support != len(s.SupportIdx) || s.Support < 2 {
					t.Errorf("fvmine: inconsistent partial vector %+v", s)
				}
			}
		}},
		{"gspan", func(t *testing.T, ctl *runctl.Controller) {
			res := gspan.Mine(mols, gspan.Options{MinSupport: 6, MaxEdges: 6, Ctl: ctl})
			if !res.Truncated {
				t.Error("gspan: not flagged truncated")
			}
			if res.StopReason != runctl.ReasonCancel {
				t.Errorf("gspan: StopReason = %q", res.StopReason)
			}
			for _, p := range res.Patterns {
				if p.Support < 6 || p.Graph == nil {
					t.Errorf("gspan: invalid partial pattern %+v", p)
				}
			}
		}},
		{"fsg", func(t *testing.T, ctl *runctl.Controller) {
			res := fsg.Mine(mols, fsg.Options{MinSupport: 6, MaxEdges: 5, Ctl: ctl})
			if !res.Truncated {
				t.Error("fsg: not flagged truncated")
			}
			if res.StopReason != runctl.ReasonCancel {
				t.Errorf("fsg: StopReason = %q", res.StopReason)
			}
			for _, p := range res.Patterns {
				// Partial results must only contain exactly counted patterns.
				if want := isomorph.Support(p.Graph, mols); p.Support != want {
					t.Errorf("fsg: pattern support %d; exact %d", p.Support, want)
				}
			}
		}},
		{"leap", func(t *testing.T, ctl *runctl.Controller) {
			pos, neg := mols[:12], mols[12:]
			patterns := leap.Mine(pos, neg, leap.Options{TopK: 5, MaxEdges: 5, Ctl: ctl})
			if !ctl.Stopped() {
				t.Error("leap: controller not stopped")
			}
			for _, p := range patterns {
				if p.Graph == nil || p.PosFreq < 0 || p.PosFreq > 1 {
					t.Errorf("leap: invalid partial pattern %+v", p)
				}
			}
		}},
		{"vf2", func(t *testing.T, ctl *runctl.Controller) {
			cp := ctl.Checkpoint(runctl.StageVF2)
			pattern := chem.Benzene()
			var hits int
			for _, g := range mols {
				ok, err := isomorph.SubgraphIsomorphicCtl(pattern, g, cp)
				if err != nil {
					if runctl.ReasonOf(err) != runctl.ReasonCancel {
						t.Errorf("vf2: reason = %q", runctl.ReasonOf(err))
					}
					break
				}
				if ok {
					hits++
				}
			}
			if !ctl.Stopped() {
				t.Error("vf2: controller not stopped")
			}
		}},
		{"core.Mine", func(t *testing.T, ctl *runctl.Controller) {
			cfg := testConfig()
			cfg.Ctl = ctl
			res := Mine(mols, cfg)
			if !res.Truncated {
				t.Error("core: not flagged truncated")
			}
			d := res.Degradation
			if !d.Truncated || d.Reason != runctl.ReasonCancel {
				t.Errorf("core: degradation = %+v", d)
			}
			for _, sg := range res.Subgraphs {
				if sg.Graph == nil || sg.Graph.NumEdges() == 0 {
					t.Errorf("core: invalid partial subgraph %+v", sg)
				}
			}
		}},
	}
	for _, st := range stages {
		for _, k := range []int64{1, 3, 25} {
			t.Run(st.name, func(t *testing.T) {
				ctl := hookCtl(k)
				st.run(t, ctl)
				if err := ctl.Err(); err == nil {
					t.Fatalf("k=%d: controller has no stop cause", k)
				} else if runctl.ReasonOf(err) != runctl.ReasonCancel {
					t.Errorf("k=%d: reason = %q; want cancel", k, runctl.ReasonOf(err))
				}
			})
		}
	}
}

// TestMineDeadlineOvershootBounded asserts the full pipeline observes a
// mid-run deadline promptly: with amortized checkpoints every 64 cheap
// steps, overshoot must stay well inside 250ms.
func TestMineDeadlineOvershootBounded(t *testing.T) {
	// Radius 5 on 160 graphs takes several times the budget to mine in
	// full, so the deadline lands mid-run on fast machines too.
	db := plantedDB(160, 24, chem.SbCore())
	cfg := testConfig()
	cfg.CutoffRadius = 5
	const budget = 60 * time.Millisecond
	slack := 250 * time.Millisecond
	if raceEnabled {
		slack *= 10 // the race detector slows every step ~10x
	}
	cfg.Deadline = time.Now().Add(budget)
	t0 := time.Now()
	res := Mine(db, cfg)
	elapsed := time.Since(t0)
	if elapsed > budget+slack {
		t.Errorf("mine returned %s after a %s deadline; overshoot too large", elapsed, budget)
	}
	// A 60ms budget cannot complete this database; the run must say so.
	if !res.Truncated {
		t.Skip("mine completed inside the deadline on this machine")
	}
	if res.Degradation.Reason != runctl.ReasonDeadline {
		t.Errorf("degradation reason = %q; want deadline", res.Degradation.Reason)
	}
	if len(res.Degradation.Stages) == 0 {
		t.Error("no stage reports on a truncated run")
	}
}

// TestStageBudgetsTruncate asserts each budget pool cuts the run with a
// budget verdict.
func TestStageBudgetsTruncate(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	cases := []struct {
		name    string
		budgets runctl.Budgets
	}{
		{"fvmine-states", runctl.Budgets{FVMineStates: 10}},
		{"miner-steps", runctl.Budgets{MinerSteps: 10}},
		{"vf2-nodes", runctl.Budgets{VF2Nodes: 10}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Budgets = tc.budgets
			res := Mine(db, cfg)
			if !res.Truncated {
				t.Skip("run fit inside the budget on this configuration")
			}
			if res.Degradation.Reason != runctl.ReasonBudget {
				t.Errorf("reason = %q; want budget (%s)", res.Degradation.Reason, res.Degradation)
			}
		})
	}
}

// TestGroupWorkerPanicIsolated injects a panic into the group-mining FSM
// worker via the checkpoint hook and asserts it degrades into a
// per-group error instead of crashing the process.
func TestGroupWorkerPanicIsolated(t *testing.T) {
	db := plantedDB(24, 6, chem.SbCore())
	ctl := runctl.New(runctl.Options{
		CheckInterval: 1,
		Hook:          func(check int64) bool { panic("injected FSM fault") },
	})
	out, panicked := mineMaximalIsolated(db, 3, testConfig(), ctl, graph.Label(1))
	if !panicked {
		t.Fatal("injected panic not reported")
	}
	if out != nil {
		t.Errorf("panicked group returned patterns: %v", out)
	}
	d := ctl.Report()
	if !d.Truncated || d.Reason != runctl.ReasonPanic {
		t.Fatalf("degradation = %+v; want panic verdict", d)
	}
	found := false
	for _, st := range d.Stages {
		if st.Reason == runctl.ReasonPanic && strings.Contains(st.Err, "injected FSM fault") {
			found = true
			if !strings.Contains(st.Err, "goroutine") {
				t.Error("panic report carries no stack")
			}
		}
	}
	if !found {
		t.Error("no stage report names the injected panic")
	}
}

// TestVerifyWorkerPanicIsolated injects a panic into the support
// verification phase: nil graphs make isomorph panic inside the verify
// workers, which must recover and keep the process alive.
func TestVerifyWorkerPanicIsolated(t *testing.T) {
	ctl := runctl.New(runctl.Options{})
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic escaped the verify barrier: %v", r)
		}
	}()
	ctl.Recovered(runctl.StageVerify, "synthetic verify fault", "boom")
	d := ctl.Report()
	if !d.Truncated || d.Reason != runctl.ReasonPanic || d.Stage != runctl.StageVerify {
		t.Errorf("degradation = %+v", d)
	}
}

// TestMineContextCancelPartialResult runs the full pipeline under an
// already-canceled controller and requires an immediate, valid,
// empty-ish result with a cancel verdict.
func TestMineContextCancelPartialResult(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	cfg := testConfig()
	cfg.Ctl = runctl.New(runctl.Options{})
	cfg.Ctl.Cancel("canceled before the mine")
	limit := 250 * time.Millisecond
	if raceEnabled {
		limit *= 10
	}
	t0 := time.Now()
	res := Mine(db, cfg)
	if el := time.Since(t0); el > limit {
		t.Errorf("canceled mine took %s", el)
	}
	if !res.Truncated || res.Degradation.Reason != runctl.ReasonCancel {
		t.Errorf("degradation = %+v; want cancel", res.Degradation)
	}
}

// assertStageBalance checks the per-stage span accounting invariant on
// a finished run: for every stage that reported at all,
// started == completed + degraded, and the duration histogram saw
// exactly one observation per span.
func assertStageBalance(t *testing.T, snap obs.Snapshot) (totalDegraded int64) {
	t.Helper()
	stages := snap.LabelValues(obs.MStageStarted, "stage")
	if len(stages) == 0 {
		t.Fatal("no stage spans recorded")
	}
	for _, st := range stages {
		started := snap.CounterValue(obs.MStageStarted, "stage", st)
		completed := snap.CounterValue(obs.MStageCompleted, "stage", st)
		degraded := snap.CounterValue(obs.MStageDegraded, "stage", st)
		if started != completed+degraded {
			t.Errorf("stage %s unbalanced: started %d != completed %d + degraded %d",
				st, started, completed, degraded)
		}
		if h, ok := snap.HistogramValue(obs.MStageDuration, "stage", st); !ok || h.Count != started {
			t.Errorf("stage %s duration count = %d, want %d", st, h.Count, started)
		}
		totalDegraded += degraded
	}
	return totalDegraded
}

// degradationTotal sums the MDegradations counter across all reasons.
func degradationTotal(snap obs.Snapshot) int64 {
	var total int64
	for _, reason := range snap.LabelValues(obs.MDegradations, "reason") {
		total += snap.CounterValue(obs.MDegradations, "reason", reason)
	}
	return total
}

// TestMineMetricsBalanceOnTrip trips the full pipeline at arbitrary
// checkpoints and asserts the books still balance: every started stage
// span ends exactly once (completed or degraded), at least one stage
// is booked degraded on a truncated run, and the run-level degradation
// counter moves exactly once — by the checkpoint that won the
// first-cause CAS, under its reason.
func TestMineMetricsBalanceOnTrip(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	for _, k := range []int64{1, 3, 25} {
		t.Run(fmt.Sprintf("cancel-at-%d", k), func(t *testing.T) {
			reg := obs.NewRegistry()
			ctl := runctl.New(runctl.Options{
				CheckInterval: 1,
				Hook:          func(check int64) bool { return check >= k },
				Metrics:       reg,
			})
			cfg := testConfig()
			cfg.Ctl = ctl
			res := Mine(db, cfg)
			if !res.Truncated {
				t.Fatal("hooked mine not truncated")
			}
			snap := reg.Snapshot()
			if deg := assertStageBalance(t, snap); deg == 0 {
				t.Error("truncated run booked no degraded stage span")
			}
			if got := degradationTotal(snap); got != 1 {
				t.Errorf("degradations counted %d times, want exactly once", got)
			}
			if got := snap.CounterValue(obs.MDegradations, "reason", string(runctl.ReasonCancel)); got != 1 {
				t.Errorf("degradations{cancel} = %d, want 1", got)
			}
		})
	}
}

// TestMineMetricsBalanceOnBudget is the budget-pool variant: however
// far the run got before the pool drained, the span books balance and
// the degradation counter moved once, under reason budget.
func TestMineMetricsBalanceOnBudget(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	cfg.Budgets = runctl.Budgets{MinerSteps: 10}
	res := Mine(db, cfg)
	snap := reg.Snapshot()
	degradedStages := assertStageBalance(t, snap)
	if !res.Truncated {
		t.Skip("run fit inside the budget on this configuration")
	}
	if degradedStages == 0 {
		t.Error("truncated run booked no degraded stage span")
	}
	if got := degradationTotal(snap); got != 1 {
		t.Errorf("degradations counted %d times, want exactly once", got)
	}
	if got := snap.CounterValue(obs.MDegradations, "reason", string(runctl.ReasonBudget)); got != 1 {
		t.Errorf("degradations{budget} = %d, want 1", got)
	}
}

// TestMineMetricsCleanRun is the control: an untripped mine completes
// every span, books zero degradations, and reports all six stages.
func TestMineMetricsCleanRun(t *testing.T) {
	db := plantedDB(24, 6, chem.SbCore())
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	res := Mine(db, cfg)
	if res.Truncated {
		t.Fatalf("clean run truncated: %+v", res.Degradation)
	}
	snap := reg.Snapshot()
	if deg := assertStageBalance(t, snap); deg != 0 {
		t.Errorf("clean run booked %d degraded spans", deg)
	}
	if got := degradationTotal(snap); got != 0 {
		t.Errorf("clean run counted %d degradations", got)
	}
	for _, st := range []string{"features", "rwr", "fvmine", "group", "group-mine", "verify"} {
		if snap.CounterValue(obs.MStageStarted, "stage", st) < 1 {
			t.Errorf("stage %s never reported", st)
		}
	}
}

// TestPanicMetricsExactlyOnce reuses the injected-FSM-fault setup and
// asserts the isolated panic is visible in the registry exactly once —
// under the panic counter, not the degradation counter, which tracks
// run-level stops only (an isolated worker panic does not cut the run,
// so booking it there would double-count against the CAS invariant).
func TestPanicMetricsExactlyOnce(t *testing.T) {
	db := plantedDB(24, 6, chem.SbCore())
	reg := obs.NewRegistry()
	ctl := runctl.New(runctl.Options{
		CheckInterval: 1,
		Hook:          func(check int64) bool { panic("injected FSM fault") },
		Metrics:       reg,
	})
	if _, panicked := mineMaximalIsolated(db, 3, testConfig(), ctl, graph.Label(1)); !panicked {
		t.Fatal("injected panic not reported")
	}
	snap := reg.Snapshot()
	if got := snap.CounterValue(obs.MPanics, "stage", string(runctl.StageGroupMine)); got != 1 {
		t.Errorf("panics{group-mine} = %d, want 1", got)
	}
	if got := degradationTotal(snap); got != 0 {
		t.Errorf("isolated panic booked %d run-level degradations, want 0", got)
	}
}

// TestSignificantVectorGroupsSurvivesTrip checks the FVMine fan-out
// records an aggregate stage report when tripped mid-flight.
func TestSignificantVectorGroupsSurvivesTrip(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	cfg := testConfig()
	fs := BuildFeatureSet(db, cfg)
	vectors, _ := rwr.DatabaseVectors(db, fs, rwr.Config{Alpha: cfg.Alpha, Bins: cfg.Bins})
	ctl := hookCtl(5)
	groups := significantVectorGroups(vectors, cfg, ctl)
	if !ctl.Stopped() {
		t.Fatal("controller not stopped")
	}
	for _, g := range groups {
		if len(g.Nodes) == 0 || g.Sig.Support != len(g.Sig.SupportIdx) {
			t.Errorf("inconsistent partial group for label %d", g.Label)
		}
	}
	var aggregate bool
	for _, st := range ctl.Report().Stages {
		if st.Stage == runctl.StageFVMine {
			aggregate = true
		}
	}
	if !aggregate {
		t.Error("no FVMine stage report after trip")
	}
}

package core

// Determinism and fault-injection suite for the parallel Phase-3
// pipeline: Result.Subgraphs must be byte-identical across parallelism
// levels and repeated runs — including when a shared VF2 budget trips
// mid-verification — and a trip mid-pool must leave the stage-span
// books balanced.

import (
	"fmt"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/isomorph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// mineFingerprint flattens every observable field of the answer set so
// two runs can be compared for exact equality.
func mineFingerprint(res Result) []string {
	out := make([]string, 0, len(res.Subgraphs))
	for _, sg := range res.Subgraphs {
		out = append(out, fmt.Sprintf("%s|%d|%v|%v|%d|%d|%d|%d|%v|%v",
			sg.Canonical, sg.SourceLabel, sg.VectorPValue, sg.VectorLogPValue,
			sg.VectorSupport, sg.GroupSize, sg.GroupSupport, sg.Support,
			sg.Frequency, sg.Unverified))
	}
	return out
}

func assertSameMine(t *testing.T, label string, a, b Result) {
	t.Helper()
	if a.VectorsMined != b.VectorsMined || a.GroupsMined != b.GroupsMined ||
		a.GroupsPruned != b.GroupsPruned || a.GroupErrors != b.GroupErrors {
		t.Errorf("%s: counters differ: %d/%d/%d/%d vs %d/%d/%d/%d", label,
			a.VectorsMined, a.GroupsMined, a.GroupsPruned, a.GroupErrors,
			b.VectorsMined, b.GroupsMined, b.GroupsPruned, b.GroupErrors)
	}
	fa, fb := mineFingerprint(a), mineFingerprint(b)
	if len(fa) != len(fb) {
		t.Fatalf("%s: %d vs %d subgraphs", label, len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Errorf("%s: subgraph %d differs:\n  %s\n  %s", label, i, fa[i], fb[i])
		}
	}
}

// TestMineParallelismInvariance mines the same database serially
// (Parallelism 1), at a forced fan-out, and twice at the same setting:
// every answer set must be identical, field for field.
func TestMineParallelismInvariance(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	mineAt := func(p int) Result {
		cfg := testConfig()
		cfg.Parallelism = p
		return Mine(db, cfg)
	}
	serial := mineAt(1)
	if len(serial.Subgraphs) == 0 {
		t.Fatal("serial mine found nothing; the comparison is vacuous")
	}
	if serial.Truncated {
		t.Fatalf("serial mine truncated: %s", serial.Degradation.String())
	}
	for _, sg := range serial.Subgraphs {
		if sg.Unverified {
			t.Errorf("complete verified run left %s Unverified", sg.Canonical)
		}
	}
	assertSameMine(t, "parallelism 1 vs 4", serial, mineAt(4))
	assertSameMine(t, "parallelism 4 repeated", mineAt(4), mineAt(4))
}

// TestMineDeterministicUnderVF2Budget is the hard determinism case: a
// tight VF2 budget. The VF2 pool is charged only by graph-space
// verification (mining-internal isomorphism draws MinerSteps), so the
// trip always lands in the verify phase; which patterns got verified
// before it depends on worker scheduling, so the verify phase voids
// itself all-or-nothing. The answer set must be identical across
// parallelism levels, uniformly Unverified.
func TestMineDeterministicUnderVF2Budget(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	probe := runctl.New(runctl.Options{CheckInterval: 1})
	pcfg := testConfig()
	pcfg.Ctl = probe
	if res := Mine(db, pcfg); res.Truncated {
		t.Fatalf("probe mine truncated: %s", res.Degradation.String())
	}
	verifySpend := probe.Spent().VF2Nodes
	if verifySpend < 64 {
		t.Fatalf("verification consumed only %d VF2 nodes; workload too small for a mid-verify trip", verifySpend)
	}
	mineAt := func(p int) Result {
		cfg := testConfig()
		cfg.Parallelism = p
		cfg.Ctl = runctl.New(runctl.Options{
			CheckInterval: 1,
			Budgets:       runctl.Budgets{VF2Nodes: verifySpend / 2},
		})
		return Mine(db, cfg)
	}
	serial := mineAt(1)
	if len(serial.Subgraphs) == 0 {
		t.Fatal("budgeted mine found nothing; the comparison is vacuous")
	}
	if !serial.Truncated {
		t.Fatal("VF2 budget at half the verification spend did not trip")
	}
	if serial.Degradation.Reason != runctl.ReasonBudget {
		t.Fatalf("degradation = %+v; want budget", serial.Degradation)
	}
	if serial.Degradation.Stage != runctl.StageVerify {
		t.Fatalf("VF2 budget tripped in stage %q; must land in verify", serial.Degradation.Stage)
	}
	for _, sg := range serial.Subgraphs {
		if !sg.Unverified || sg.Support != 0 || sg.Frequency != 0 {
			t.Errorf("tripped verification left partial support on %s: support=%d unverified=%v",
				sg.Canonical, sg.Support, sg.Unverified)
		}
	}
	assertSameMine(t, "budgeted parallelism 1 vs 4", serial, mineAt(4))
	assertSameMine(t, "budgeted parallelism 4 repeated", mineAt(4), mineAt(4))
}

// TestMineParallelPhase3Balance trips a Parallelism-4 mine at check
// counts spread across the pipeline (fractions of a probed total) and
// asserts the stage-span books balance — started == completed +
// degraded per stage — with exactly one run-level degradation.
func TestMineParallelPhase3Balance(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	probe := runctl.New(runctl.Options{CheckInterval: 1})
	pcfg := testConfig()
	pcfg.Parallelism = 4
	pcfg.Ctl = probe
	if res := Mine(db, pcfg); res.Truncated {
		t.Fatalf("probe mine truncated: %s", res.Degradation.String())
	}
	total := probe.Spent().Checks
	if total < 16 {
		t.Fatalf("probe consumed only %d checks; workload too small to inject mid-run", total)
	}
	// Check totals are not exactly reproducible (VF2 search-tree sizes
	// depend on incidental orderings), so the last injection point stays
	// a comfortable fraction below the probed total.
	// Subtests are named by fraction, not by check count, so the names
	// stay stable from run to run.
	for _, at := range []struct {
		name string
		k    int64
	}{
		{"start", 2}, {"half", total / 2}, {"3q", 3 * total / 4}, {"7eighths", 7 * total / 8},
	} {
		k := at.k
		t.Run("cancel-at-"+at.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := testConfig()
			cfg.Parallelism = 4
			cfg.Ctl = runctl.New(runctl.Options{
				CheckInterval: 1,
				Hook:          func(check int64) bool { return check >= k },
				Metrics:       reg,
			})
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
		})
	}
}

// TestMineParallelMinerBudgetBalance is the budget variant: a miner
// budget drains mid-pool while several group workers are in flight;
// the books must balance and the degradation must name the budget.
func TestMineParallelMinerBudgetBalance(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Parallelism = 4
	cfg.Metrics = reg
	cfg.Budgets = runctl.Budgets{MinerSteps: 40}
	res := Mine(db, cfg)
	if !res.Truncated {
		t.Fatal("miner budget of 40 steps did not trip")
	}
	if res.Degradation.Reason != runctl.ReasonBudget {
		t.Errorf("degradation = %+v; want budget", res.Degradation)
	}
	snap := reg.Snapshot()
	if deg := assertStageBalance(t, snap); deg == 0 {
		t.Error("truncated run booked no degraded stage span")
	}
	if got := degradationTotal(snap); got != 1 {
		t.Errorf("degradations counted %d times, want exactly once", got)
	}
}

// TestVerifyPanicMarksUnverified injects panics into the verification
// workers and asserts the affected patterns are distinguishable from
// true zero-support. Only verification draws the VF2 pool, so a hook
// that panics once any VF2 node is spent detonates inside a verify
// worker. A panic — unlike a budget trip — does not void the phase:
// patterns the surviving work produced keep their exact support, and
// everything the dead workers drained stays Unverified.
func TestVerifyPanicMarksUnverified(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	var ctl *runctl.Controller
	ctl = runctl.New(runctl.Options{
		CheckInterval: 1,
		Hook: func(int64) bool {
			if ctl.Spent().VF2Nodes > 0 {
				panic("injected verify fault")
			}
			return false
		},
	})
	cfg := testConfig()
	cfg.Ctl = ctl
	res := Mine(db, cfg)
	if len(res.Subgraphs) == 0 {
		t.Fatal("mine found nothing; the panic never had a target")
	}
	if !res.Truncated || res.Degradation.Reason != runctl.ReasonPanic {
		t.Fatalf("degradation = %+v; want panic", res.Degradation)
	}
	unverified := 0
	for _, sg := range res.Subgraphs {
		if sg.Unverified {
			unverified++
			if sg.Support != 0 || sg.Frequency != 0 {
				t.Errorf("unverified pattern %s carries support %d", sg.Canonical, sg.Support)
			}
			continue
		}
		// A pattern the panic spared must carry its exact graph-space
		// support, not a partial count.
		if want := isomorph.Support(sg.Graph, db); sg.Support != want {
			t.Errorf("verified pattern %s has support %d; exact %d", sg.Canonical, sg.Support, want)
		}
	}
	if unverified == 0 {
		t.Error("panicking verify workers left no pattern Unverified")
	}
}

// TestMineWindowCacheAndPrefilterCounters checks the new obs series
// move: a complete verified mine must account one prefilter decision
// per (pattern, database graph) pair, and the window cache must have
// cut every distinct region exactly once.
func TestMineWindowCacheAndPrefilterCounters(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	reg := obs.NewRegistry()
	cfg := testConfig()
	cfg.Metrics = reg
	res := Mine(db, cfg)
	if res.Truncated {
		t.Fatalf("mine truncated: %s", res.Degradation.String())
	}
	if len(res.Subgraphs) == 0 {
		t.Fatal("mine found nothing")
	}
	snap := reg.Snapshot()
	misses := snap.CounterValue(obs.MWindowCacheMisses)
	hits := snap.CounterValue(obs.MWindowCacheHits)
	if misses == 0 {
		t.Error("window cache cut no windows")
	}
	if hits == 0 {
		t.Error("no region was shared between groups; cache never hit")
	}
	rejects := snap.CounterValue(obs.MPrefilterRejects, "site", "verify")
	passes := snap.CounterValue(obs.MPrefilterPasses, "site", "verify")
	if got, want := rejects+passes, int64(len(res.Subgraphs)*len(db)); got != want {
		t.Errorf("verify prefilter decisions = %d, want %d (patterns × graphs)", got, want)
	}
}

package runctl

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var c *Controller
	if c.Err() != nil || c.Stopped() {
		t.Fatal("nil controller should never stop")
	}
	cp := c.Checkpoint(StageFVMine)
	for i := 0; i < 1000; i++ {
		if err := cp.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cp.Force(); err != nil {
		t.Fatal(err)
	}
	c.RecordStage(StageReport{Stage: StageFVMine})
	c.Recovered(StageFVMine, "x", "boom")
	if d := c.Report(); d.Truncated {
		t.Fatal("nil controller reports truncation")
	}
	if c.Context() == nil {
		t.Fatal("nil controller context")
	}
}

func TestDeadlineAmortization(t *testing.T) {
	c := New(Options{Deadline: time.Now().Add(-time.Second)})
	cp := c.Checkpoint(StageFSG)
	// The first interval-1 steps never consult the clock.
	for i := 0; i < DefaultCheckInterval-1; i++ {
		if err := cp.Step(); err != nil {
			t.Fatalf("step %d tripped early: %v", i, err)
		}
	}
	if err := cp.Step(); err == nil {
		t.Fatal("interval-th step should consult the deadline")
	}
}

func TestContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := New(Options{Context: ctx})
	cp := c.Checkpoint(StageVF2)
	if err := cp.Force(); err != nil {
		t.Fatalf("premature stop: %v", err)
	}
	cancel()
	err := cp.Force()
	se, ok := AsStop(err)
	if !ok || se.Reason != ReasonCancel {
		t.Fatalf("got %v; want cancel", err)
	}
	// The same cause is sticky for every later checkpoint.
	cp2 := c.Checkpoint(StageFVMine)
	if err2 := cp2.Force(); err2 != err {
		t.Fatalf("second checkpoint got %v; want the first cause", err2)
	}
}

func TestContextDeadlineMapsToDeadlineReason(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	c := New(Options{Context: ctx})
	err := c.Checkpoint(StageLEAP).Force()
	se, ok := AsStop(err)
	if !ok || se.Reason != ReasonDeadline {
		t.Fatalf("got %v; want deadline", err)
	}
}

func TestBudgetSharedAcrossCheckpoints(t *testing.T) {
	c := New(Options{Budgets: Budgets{FVMineStates: 100}, CheckInterval: 10})
	a := c.Checkpoint(StageFVMine)
	b := c.Checkpoint(StageFVMine)
	steps := 0
	var err error
	for err == nil && steps < 1000 {
		if steps%2 == 0 {
			err = a.Step()
		} else {
			err = b.Step()
		}
		steps++
	}
	se, ok := AsStop(err)
	if !ok || se.Reason != ReasonBudget {
		t.Fatalf("got %v after %d steps; want budget stop", err, steps)
	}
	if steps < 100 || steps > 120 {
		t.Fatalf("budget of 100 tripped after %d steps (interval 10)", steps)
	}
	// Other stages draw from other pools and are unaffected... until the
	// shared cause gates them.
	if se2, _ := AsStop(c.Checkpoint(StageVF2).Force()); se2 != se {
		t.Fatal("stop cause should be shared")
	}
}

func TestBudgetStageMapping(t *testing.T) {
	c := New(Options{Budgets: Budgets{VF2Nodes: 5}, CheckInterval: 1})
	cpMiner := c.Checkpoint(StageGSpan)
	for i := 0; i < 50; i++ {
		if err := cpMiner.Step(); err != nil {
			t.Fatalf("gspan should not draw from the VF2 budget: %v", err)
		}
	}
	cpVF2 := c.Checkpoint(StageVerify) // verify shares the VF2 pool
	var err error
	for i := 0; i < 50 && err == nil; i++ {
		err = cpVF2.Step()
	}
	if se, ok := AsStop(err); !ok || se.Reason != ReasonBudget {
		t.Fatalf("got %v; want VF2 budget stop", err)
	}
}

func TestHookTripsAtKthCheckpoint(t *testing.T) {
	const k = 3
	c := New(Options{
		CheckInterval: 5,
		Hook:          func(check int64) bool { return check >= k },
	})
	cp := c.Checkpoint(StageFVMine)
	var err error
	steps := 0
	for err == nil && steps < 1000 {
		err = cp.Step()
		steps++
	}
	if steps != k*5 {
		t.Fatalf("tripped after %d steps; want %d", steps, k*5)
	}
	se, ok := AsStop(err)
	if !ok || se.Reason != ReasonCancel || !strings.Contains(se.Detail, "checkpoint 3") {
		t.Fatalf("got %v", err)
	}
}

func TestStepsAccounting(t *testing.T) {
	c := New(Options{CheckInterval: 10})
	cp := c.Checkpoint(StageFSG)
	for i := 0; i < 25; i++ {
		if err := cp.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := cp.Steps(); got != 25 {
		t.Fatalf("Steps() = %d; want 25", got)
	}
}

func TestRecoveredAndReport(t *testing.T) {
	c := New(Options{})
	func() {
		defer func() {
			if r := recover(); r != nil {
				c.Recovered(StageGroupMine, "group 7", r)
			}
		}()
		panic("kaboom")
	}()
	c.RecordStop(StageVerify, 12, 40, "partial verify")
	d := c.Report()
	if !d.Truncated || d.Reason != ReasonPanic || d.Stage != StageGroupMine {
		t.Fatalf("report = %+v", d)
	}
	if len(d.Stages) != 2 {
		t.Fatalf("stages = %+v", d.Stages)
	}
	p := d.Stages[0]
	if p.Reason != ReasonPanic || !strings.Contains(p.Err, "kaboom") || p.Detail != "group 7" {
		t.Fatalf("panic report = %+v", p)
	}
	s := d.String()
	if !strings.Contains(s, "truncated") || !strings.Contains(s, "group-mine") || !strings.Contains(s, "12/40") {
		t.Fatalf("String() = %q", s)
	}
}

func TestReportComplete(t *testing.T) {
	c := New(Options{Deadline: time.Now().Add(time.Hour)})
	cp := c.Checkpoint(StageFVMine)
	for i := 0; i < 1000; i++ {
		if err := cp.Step(); err != nil {
			t.Fatal(err)
		}
	}
	d := c.Report()
	if d.Truncated {
		t.Fatalf("unexpected truncation: %+v", d)
	}
	if d.String() != "complete" {
		t.Fatalf("String() = %q", d.String())
	}
}

// TestConcurrentCheckpoints exercises the shared state under the race
// detector: many goroutines, one controller, one budget pool.
func TestConcurrentCheckpoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := New(Options{Context: ctx, Budgets: Budgets{MinerSteps: 50000}, CheckInterval: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cp := c.Checkpoint(StageGSpan)
			for i := 0; i < 100000; i++ {
				if err := cp.Step(); err != nil {
					return
				}
			}
		}(w)
	}
	time.Sleep(time.Millisecond)
	cancel()
	c.Recovered(StageGSpan, "concurrent", "fake panic")
	wg.Wait()
	d := c.Report()
	if !d.Truncated {
		t.Fatal("expected truncation (budget or cancel)")
	}
	if d.Reason != ReasonBudget && d.Reason != ReasonCancel {
		t.Fatalf("reason = %q", d.Reason)
	}
}

package runctl

import "testing"

// TestAdministrativeCancel: Cancel stops the run at the next
// consultation with a cancel cause, without any context plumbing.
func TestAdministrativeCancel(t *testing.T) {
	ctl := New(Options{CheckInterval: 1})
	cp := ctl.Checkpoint(StageFVMine)
	if err := cp.Step(); err != nil {
		t.Fatalf("step before cancel: %v", err)
	}
	ctl.Cancel("operator said stop")
	err := cp.Step()
	if err == nil {
		t.Fatal("step after Cancel returned nil")
	}
	se, ok := AsStop(err)
	if !ok || se.Reason != ReasonCancel {
		t.Fatalf("stop cause = %v; want cancel", err)
	}
	if se.Detail != "operator said stop" {
		t.Errorf("detail = %q", se.Detail)
	}
	d := ctl.Report()
	if !d.Truncated || d.Reason != ReasonCancel {
		t.Errorf("report = %+v", d)
	}
	// First cause wins: a later Cancel must not overwrite it.
	ctl.Cancel("second cancel")
	if se2, _ := AsStop(ctl.Err()); se2.Detail != "operator said stop" {
		t.Errorf("later cancel overwrote first cause: %q", se2.Detail)
	}
	// Nil controller: no-op, no panic.
	var nilCtl *Controller
	nilCtl.Cancel("x")
}

// TestSpentSnapshot: Spent mirrors the shared budget counters the
// checkpoints flush into.
func TestSpentSnapshot(t *testing.T) {
	var nilCtl *Controller
	if s := nilCtl.Spent(); s != (Spent{}) {
		t.Errorf("nil controller spent = %+v", s)
	}
	ctl := New(Options{CheckInterval: 1})
	fv := ctl.Checkpoint(StageFVMine)
	miner := ctl.Checkpoint(StageGSpan)
	vf2 := ctl.Checkpoint(StageVF2)
	for i := 0; i < 5; i++ {
		fv.Step()
	}
	for i := 0; i < 3; i++ {
		miner.Step()
	}
	for i := 0; i < 2; i++ {
		vf2.Step()
	}
	s := ctl.Spent()
	if s.FVMineStates != 5 || s.MinerSteps != 3 || s.VF2Nodes != 2 {
		t.Errorf("spent = %+v; want 5/3/2", s)
	}
	if s.Checks != 10 {
		t.Errorf("checks = %d; want 10 at interval 1", s.Checks)
	}
}

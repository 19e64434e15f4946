package jobs

// Durability suite: journaled lifecycle + restart replay, checkpoint
// resume across retries, deadline-aware admission control, the stall
// watchdog, and the TTL-vs-in-flight eviction regression tests.

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/journal"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// openJournal opens a journal in dir, failing the test on error.
func openJournal(t *testing.T, dir string, opt journal.Options) (*journal.Journal, []journal.JobRecord) {
	t.Helper()
	jr, recs, err := journal.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return jr, recs
}

func TestJournalReplaySurfacesFinishedJob(t *testing.T) {
	dir := t.TempDir()
	jr, _ := openJournal(t, dir, journal.Options{})
	m := newTestManager(t, Options{Journal: jr})
	j, _, err := m.Submit(cfgN(4), SubmitOptions{Detached: true, Label: "durable", Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	if err := m.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh manager over the same journal dir surfaces the
	// finished job with its persisted result under the same ID.
	jr2, recs := openJournal(t, dir, journal.Options{})
	reg := obs.NewRegistry()
	m2 := newTestManager(t, Options{Journal: jr2, Replay: recs, Metrics: reg})
	j2, ok := m2.Get(j.ID())
	if !ok {
		t.Fatalf("replayed manager lost job %s", j.ID())
	}
	snap := j2.Snapshot()
	if snap.State != StateDone || snap.Result == nil {
		t.Fatalf("replayed job snapshot = %+v", snap)
	}
	if snap.Label != "durable" {
		t.Errorf("label lost in replay: %q", snap.Label)
	}
	if n := reg.Counter(obs.MJobsReplayed, "outcome", "finished").Value(); n != 1 {
		t.Errorf("replayed{finished} = %d, want 1", n)
	}
	// The replayed result warms the dedup cache: an identical submit
	// completes instantly.
	_, info, err := m2.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Cached {
		t.Error("identical submit after replay missed the warmed cache")
	}
}

func TestJournalReplayRequeuesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	jr, _ := openJournal(t, dir, journal.Options{})

	// First manager: the job blocks mid-run; we simulate a crash by
	// abandoning the manager without Shutdown (its journal holds
	// submitted + started but no terminal event).
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	m1 := NewManager(Options{
		DB: tinyDB(), Logf: t.Logf, Journal: jr,
		Exec: func(cfg core.Config) (core.Result, error) {
			started <- struct{}{}
			<-block
			return core.Result{}, nil
		},
	})
	j, _, err := m1.Submit(cfgN(4), SubmitOptions{Detached: true, Label: "interrupted"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if err := jr.Close(); err != nil { // crash: journal simply stops
		t.Fatal(err)
	}

	jr2, recs := openJournal(t, dir, journal.Options{})
	if len(recs) != 1 || recs[0].Terminal != "" {
		t.Fatalf("replay records = %+v, want one incomplete", recs)
	}
	reg := obs.NewRegistry()
	m2 := newTestManager(t, Options{Journal: jr2, Replay: recs, Metrics: reg})
	j2, ok := m2.Get(j.ID())
	if !ok {
		t.Fatalf("interrupted job %s not requeued", j.ID())
	}
	waitState(t, j2, StateDone)
	if n := reg.Counter(obs.MJobsReplayed, "outcome", "requeued").Value(); n != 1 {
		t.Errorf("replayed{requeued} = %d, want 1", n)
	}

	close(block)
	m1.Shutdown(context.Background())
}

func TestJournalReplayDropsForeignDatabase(t *testing.T) {
	dir := t.TempDir()
	jr, _ := openJournal(t, dir, journal.Options{})
	m1 := newTestManager(t, Options{Journal: jr})
	if _, _, err := m1.Submit(cfgN(4), SubmitOptions{Detached: true}); err != nil {
		t.Fatal(err)
	}
	// Leave the job queued/running; close the journal mid-flight so the
	// record replays as incomplete.
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}

	jr2, recs := openJournal(t, dir, journal.Options{})
	// Replay against a different database: the journaled MineKey no
	// longer matches, so the job must be dropped, not silently re-mined
	// over the wrong data.
	other := tinyDB()
	other = append(other, other[0].Clone())
	reg := obs.NewRegistry()
	newTestManager(t, Options{DB: other, Journal: jr2, Replay: recs, Metrics: reg})
	if n := reg.Counter(obs.MJobsReplayed, "outcome", "dropped").Value(); n != 1 {
		t.Errorf("replayed{dropped} = %d, want 1", n)
	}

	// The drop is journaled as terminal: a third replay sees a failed
	// job, not an incomplete one resurfacing forever.
	if err := jr2.Close(); err != nil {
		t.Fatal(err)
	}
	jr3, recs3 := openJournal(t, dir, journal.Options{})
	if err := jr3.Close(); err != nil {
		t.Fatal(err)
	}
	if len(recs3) != 1 || recs3[0].Terminal != journal.EvFailed {
		t.Fatalf("after drop, records = %+v, want one failed", recs3)
	}
}

func TestRetryTransientThenSucceed(t *testing.T) {
	var attempts atomic.Int64
	m := newTestManager(t, Options{
		Workers: 1, MaxRetries: 3, RetryBackoff: time.Millisecond,
		Exec: func(cfg core.Config) (core.Result, error) {
			if attempts.Add(1) <= 2 {
				panic("transient fault")
			}
			return core.Result{VectorsMined: 5}, nil
		},
	})
	j, _, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	snap := j.Snapshot()
	if snap.Attempt != 2 || snap.Result == nil || snap.Result.VectorsMined != 5 {
		t.Fatalf("snapshot after retries = %+v", snap)
	}
	if st := m.Stats(); st.Retries != 2 {
		t.Errorf("Stats.Retries = %d, want 2", st.Retries)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("executions = %d, want 3", got)
	}
}

func TestRetryCoalesceDuringBackoff(t *testing.T) {
	// While a job waits out its retry backoff it still owns its dedup
	// key: an identical submission attaches instead of double-running.
	var attempts atomic.Int64
	gate := make(chan struct{})
	m := newTestManager(t, Options{
		Workers: 1, MaxRetries: 1, RetryBackoff: 50 * time.Millisecond,
		Exec: func(cfg core.Config) (core.Result, error) {
			if attempts.Add(1) == 1 {
				close(gate)
				panic("first attempt fails")
			}
			return core.Result{}, nil
		},
	})
	j, _, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	<-gate // first attempt has failed; backoff timer pending
	j2, info, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Coalesced || j2.ID() != j.ID() {
		t.Fatalf("submit during backoff: coalesced=%v id=%s want attach to %s", info.Coalesced, j2.ID(), j.ID())
	}
	waitState(t, j, StateDone)
}

func TestRetryResumesFromCheckpoint(t *testing.T) {
	// The attempt after a transient failure receives the checkpoint the
	// failed attempt emitted, as a decoded Config.Resume.
	dir := t.TempDir()
	jr, _ := openJournal(t, dir, journal.Options{})
	db := tinyDB()
	snapshotCfg := core.Defaults()
	snapshotCfg.CutoffRadius = 4
	var attempts atomic.Int64
	var resumedWith atomic.Value
	m := newTestManager(t, Options{
		DB: db, Journal: jr, MaxRetries: 1, RetryBackoff: time.Millisecond,
		Exec: func(cfg core.Config) (core.Result, error) {
			ctl := cfg.Ctl
			if attempts.Add(1) == 1 {
				// Emit a synthetic checkpoint, then die.
				buf, err := core.EncodeResumeState(&core.ResumeState{V: 1, Key: "k", GroupsHash: "h", Done: 0})
				if err != nil {
					panic(err)
				}
				ctl.EmitCheckpoint(buf)
				panic("transient")
			}
			if cfg.Resume != nil {
				resumedWith.Store(cfg.Resume.Key)
			}
			return core.Result{}, nil
		},
	})
	j, _, err := m.Submit(snapshotCfg, SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	if got, _ := resumedWith.Load().(string); got != "k" {
		t.Fatalf("second attempt resumed with %q, want the first attempt's checkpoint", got)
	}
}

func TestAdmissionShedsDoomedSubmissions(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 4)
	reg := obs.NewRegistry()
	m := newTestManager(t, Options{
		Workers: 1, QueueDepth: 4, Metrics: reg,
		Exec: func(cfg core.Config) (core.Result, error) {
			started <- struct{}{}
			<-block
			return core.Result{}, nil
		},
	})
	// Seed the service-time estimate: a cold manager never sheds.
	m.updateAvgRun(200 * time.Millisecond)

	// Occupy the worker and stack the queue.
	if _, _, err := m.Submit(cfgN(1), SubmitOptions{Detached: true}); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 2; i <= 3; i++ {
		if _, _, err := m.Submit(cfgN(i), SubmitOptions{Detached: true}); err != nil {
			t.Fatal(err)
		}
	}

	// Expected wait ≈ 200ms × (2 queued + 0.5 running) / 1 worker =
	// 500ms; a 10ms deadline is doomed, a 10s one is fine.
	_, _, err := m.Submit(cfgN(7), SubmitOptions{Detached: true, Deadline: time.Now().Add(10 * time.Millisecond)})
	var shed *ErrDeadline
	if !errors.As(err, &shed) {
		t.Fatalf("doomed submit returned %v, want ErrDeadline", err)
	}
	if shed.ExpectedWait <= 0 {
		t.Errorf("shed error carries no wait estimate: %+v", shed)
	}
	if _, _, err := m.Submit(cfgN(8), SubmitOptions{Detached: true, Deadline: time.Now().Add(10 * time.Second)}); err != nil {
		t.Fatalf("feasible-deadline submit rejected: %v", err)
	}
	if st := m.Stats(); st.Shed != 1 {
		t.Errorf("Stats.Shed = %d, want 1", st.Shed)
	}
	if n := reg.Counter(obs.MJobsShed).Value(); n != 1 {
		t.Errorf("shed counter = %d, want 1", n)
	}
	close(block)
}

func TestStallWatchdogCancelsWedgedJob(t *testing.T) {
	wedged := make(chan struct{})
	reg := obs.NewRegistry()
	m := newTestManager(t, Options{
		StallTimeout: 50 * time.Millisecond, Metrics: reg,
		Exec: func(cfg core.Config) (core.Result, error) {
			<-wedged // no controller checkpoints ever advance
			return core.Result{}, nil
		},
	})
	j, _, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	// The watchdog cancels the controller; the exec is still blocked on
	// the channel, so unblock it once cancellation is requested.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s := j.Snapshot(); s.Stalled {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(wedged)
	waitState(t, j, StateCanceled)
	snap := j.Snapshot()
	if !snap.Stalled {
		t.Error("snapshot not flagged Stalled")
	}
	if snap.Degradation == nil || !strings.Contains(snap.Degradation.Detail, "stall watchdog") {
		t.Errorf("degradation = %+v, want stall watchdog detail", snap.Degradation)
	}
	if st := m.Stats(); st.Stalled != 1 {
		t.Errorf("Stats.Stalled = %d, want 1", st.Stalled)
	}
	if n := reg.Counter(obs.MJobsStalled).Value(); n != 1 {
		t.Errorf("stalled counter = %d, want 1", n)
	}
}

func TestStallWatchdogSparesAdvancingJob(t *testing.T) {
	release := make(chan struct{})
	m := newTestManager(t, Options{
		StallTimeout: 60 * time.Millisecond,
		Exec: func(cfg core.Config) (core.Result, error) {
			ctl := cfg.Ctl
			// Step tightly: the amortized checkpoint syncs every interval
			// steps, each sync advancing Spent().Checks.
			cp := ctl.Checkpoint(runctl.StageGroup)
			deadline := time.Now().Add(300 * time.Millisecond)
			for time.Now().Before(deadline) {
				if err := cp.Step(); err != nil {
					panic(err)
				}
			}
			close(release)
			return core.Result{VectorsMined: 1}, nil
		},
	})
	j, _, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	<-release
	waitState(t, j, StateDone)
	if snap := j.Snapshot(); snap.Stalled {
		t.Fatal("watchdog canceled a job that was making progress")
	}
}

func TestTTLNeverEvictsRunningJob(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	m := newTestManager(t, Options{
		TTL: 5 * time.Millisecond,
		Exec: func(cfg core.Config) (core.Result, error) {
			started <- struct{}{}
			<-block
			return core.Result{}, nil
		},
	})
	j, _, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Far past the TTL, with the janitor sweeping every TTL/4: the
	// running job must survive.
	time.Sleep(50 * time.Millisecond)
	m.evictExpired(time.Now())
	if _, ok := m.Get(j.ID()); !ok {
		t.Fatal("running job evicted by TTL janitor")
	}
	close(block)
	waitState(t, j, StateDone)
}

func TestTTLHoldsCanceledJobStillInQueue(t *testing.T) {
	// A job canceled while physically enqueued is terminal but still
	// referenced by the queue channel; eviction must wait until a
	// worker dequeues it, or the store and channel disagree.
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	m := newTestManager(t, Options{
		Workers: 1, TTL: time.Millisecond,
		Exec: func(cfg core.Config) (core.Result, error) {
			started <- struct{}{}
			<-block
			return core.Result{}, nil
		},
	})
	if _, _, err := m.Submit(cfgN(1), SubmitOptions{Detached: true}); err != nil {
		t.Fatal(err)
	}
	<-started // worker occupied; the next job stays in the channel
	j, _, err := m.Submit(cfgN(2), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(j.ID()) {
		t.Fatal("cancel failed")
	}
	waitState(t, j, StateCanceled)
	time.Sleep(10 * time.Millisecond) // TTL long expired
	m.evictExpired(time.Now())
	if _, ok := m.Get(j.ID()); !ok {
		t.Fatal("canceled job evicted while still referenced by the queue channel")
	}
	close(block)
	// Once the worker drains it from the channel, eviction may proceed.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m.evictExpired(time.Now())
		if _, ok := m.Get(j.ID()); !ok {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("dequeued terminal job never became evictable")
}

func TestTTLHoldsRetryPendingJob(t *testing.T) {
	var attempts atomic.Int64
	m := newTestManager(t, Options{
		TTL: time.Millisecond, MaxRetries: 1, RetryBackoff: 80 * time.Millisecond,
		Exec: func(cfg core.Config) (core.Result, error) {
			if attempts.Add(1) == 1 {
				panic("transient")
			}
			return core.Result{}, nil
		},
	})
	j, _, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	// During the backoff window the job is queued with a pending timer;
	// the janitor must leave it alone.
	deadline := time.Now().Add(5 * time.Second)
	for attempts.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	m.evictExpired(time.Now())
	if _, ok := m.Get(j.ID()); !ok {
		t.Fatal("retry-pending job evicted during backoff")
	}
	waitState(t, j, StateDone)
}

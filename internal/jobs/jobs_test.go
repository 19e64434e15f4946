package jobs

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

func tinyDB() []*graph.Graph {
	g := graph.New(3, 2)
	a := g.AddNode(0)
	b := g.AddNode(1)
	c := g.AddNode(0)
	g.MustAddEdge(a, b, 0)
	g.MustAddEdge(b, c, 0)
	return []*graph.Graph{g}
}

// newTestManager builds a manager over a tiny db with a quiet logger
// and shuts it down at test end.
func newTestManager(t *testing.T, opt Options) *Manager {
	t.Helper()
	if opt.DB == nil {
		opt.DB = tinyDB()
	}
	if opt.Logf == nil {
		opt.Logf = t.Logf
	}
	m := NewManager(opt)
	t.Cleanup(func() {
		// Short drain: leftover blocked jobs are force-canceled quickly.
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		m.Shutdown(ctx)
	})
	return m
}

// cfgN returns a config distinguished by its cutoff radius, so tests
// can mint distinct dedup keys on demand.
func cfgN(n int) core.Config {
	cfg := core.Defaults()
	cfg.CutoffRadius = n
	return cfg
}

// waitState polls until the job reaches state or the deadline passes.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j.Snapshot().State == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (state %s)", j.ID(), want, j.Snapshot().State)
}

// TestCoalesceConcurrentExactlyOnce is the acceptance criterion:
// identical concurrent submissions execute the pipeline exactly once.
func TestCoalesceConcurrentExactlyOnce(t *testing.T) {
	var execs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	m := newTestManager(t, Options{
		Workers: 2,
		Exec: func(cfg core.Config) (core.Result, error) {
			execs.Add(1)
			started <- struct{}{}
			<-release
			return core.Result{VectorsMined: 7}, nil
		},
	})

	const n = 8
	jobsOut := make([]*Job, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, _, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			jobsOut[i] = j
		}(i)
	}
	wg.Wait()
	<-started // the single execution is in flight
	close(release)
	for i, j := range jobsOut {
		if j == nil {
			t.Fatalf("submit %d returned no job", i)
		}
		<-j.Done()
		if jobsOut[i].ID() != jobsOut[0].ID() {
			t.Errorf("submit %d got distinct job %s vs %s", i, j.ID(), jobsOut[0].ID())
		}
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("pipeline executed %d times for %d identical submissions; want exactly 1", got, n)
	}
	snap := jobsOut[0].Snapshot()
	if snap.State != StateDone || snap.Result == nil || snap.Result.VectorsMined != 7 {
		t.Errorf("coalesced job snapshot = %+v", snap)
	}
	st := m.Stats()
	if st.Coalesced != n-1 {
		t.Errorf("coalesced counter = %d; want %d", st.Coalesced, n-1)
	}
}

// TestSequentialCacheHit: the same request after completion comes back
// from the cache without re-executing.
func TestSequentialCacheHit(t *testing.T) {
	var execs atomic.Int64
	m := newTestManager(t, Options{
		Workers: 1,
		Exec: func(cfg core.Config) (core.Result, error) {
			execs.Add(1)
			return core.Result{VectorsMined: int(execs.Load())}, nil
		},
	})
	j1, info1, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil || info1.Cached || info1.Coalesced {
		t.Fatalf("first submit: %+v %v", info1, err)
	}
	<-j1.Done()

	j2, info2, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Cached {
		t.Fatal("identical sequential submit missed the cache")
	}
	select {
	case <-j2.Done():
	default:
		t.Fatal("cached job not born finished")
	}
	snap := j2.Snapshot()
	if snap.State != StateDone || !snap.Cached || snap.Result == nil || snap.Result.VectorsMined != 1 {
		t.Errorf("cached snapshot = %+v", snap)
	}
	if execs.Load() != 1 {
		t.Errorf("executions = %d; want 1", execs.Load())
	}
	if j2.ID() == j1.ID() {
		t.Error("cache hit should mint a fresh job id")
	}

	// A different config is a different key: it executes.
	j3, info3, err := m.Submit(cfgN(5), SubmitOptions{Detached: true})
	if err != nil || info3.Cached || info3.Coalesced {
		t.Fatalf("distinct submit: %+v %v", info3, err)
	}
	<-j3.Done()
	if execs.Load() != 2 {
		t.Errorf("executions after distinct config = %d; want 2", execs.Load())
	}
}

// TestTruncatedResultsNotCached: a cut-short mine must not poison the
// cache — the next identical request re-executes.
func TestTruncatedResultsNotCached(t *testing.T) {
	var execs atomic.Int64
	m := newTestManager(t, Options{
		Workers: 1,
		Exec: func(cfg core.Config) (core.Result, error) {
			execs.Add(1)
			return core.Result{Truncated: true}, nil
		},
	})
	j1, _, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	j2, info, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.Cached {
		t.Fatal("truncated result served from cache")
	}
	<-j2.Done()
	if execs.Load() != 2 {
		t.Errorf("executions = %d; want 2", execs.Load())
	}
}

// ctlLoopExec runs checkpoint steps until the controller trips,
// returning a partial result — a stand-in for the real pipeline's
// cancellation behavior.
func ctlLoopExec(started chan<- string) ExecFunc {
	return func(cfg core.Config) (core.Result, error) {
		ctl := cfg.Ctl
		if started != nil {
			started <- "running"
		}
		cp := ctl.Checkpoint(runctl.StageFVMine)
		for {
			if err := cp.Force(); err != nil {
				return core.Result{Truncated: true}, nil
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestCancelRunningJob is the acceptance criterion: DELETE on a
// running job cancels it through runctl and it lands canceled with a
// degradation report.
func TestCancelRunningJob(t *testing.T) {
	started := make(chan string, 1)
	m := newTestManager(t, Options{Workers: 1, Exec: ctlLoopExec(started)})
	j, _, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	waitState(t, j, StateRunning)
	if !m.Cancel(j.ID()) {
		t.Fatal("cancel of known job reported unknown")
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("canceled job never finished")
	}
	snap := j.Snapshot()
	if snap.State != StateCanceled {
		t.Fatalf("state = %s; want canceled", snap.State)
	}
	if !snap.CancelRequested {
		t.Error("cancelRequested not set")
	}
	if snap.Degradation == nil {
		t.Fatal("canceled job carries no degradation report")
	}
	if snap.Degradation.Reason != runctl.ReasonCancel {
		t.Errorf("degradation reason = %q; want cancel", snap.Degradation.Reason)
	}
	if snap.Result == nil {
		t.Error("canceled job dropped its partial result")
	}
	// The canceled run must not be cached.
	if _, info, _ := m.Submit(cfgN(4), SubmitOptions{Detached: true}); info.Cached {
		t.Error("canceled result served from cache")
	}
}

// TestCancelQueuedJob: canceling a job still in the queue finishes it
// immediately and the worker never runs it.
func TestCancelQueuedJob(t *testing.T) {
	var execs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	m := newTestManager(t, Options{
		Workers:    1,
		QueueDepth: 4,
		Exec: func(cfg core.Config) (core.Result, error) {
			execs.Add(1)
			started <- struct{}{}
			<-release
			return core.Result{}, nil
		},
	})
	blocker, _, err := m.Submit(cfgN(1), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started // worker is occupied
	queued, _, err := m.Submit(cfgN(2), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Cancel(queued.ID()) {
		t.Fatal("cancel reported unknown job")
	}
	select {
	case <-queued.Done():
	default:
		t.Fatal("queued job not finished immediately on cancel")
	}
	snap := queued.Snapshot()
	if snap.State != StateCanceled || snap.Degradation == nil || snap.Degradation.Reason != runctl.ReasonCancel {
		t.Errorf("canceled-queued snapshot = %+v", snap)
	}
	close(release)
	<-blocker.Done()
	if execs.Load() != 1 {
		t.Errorf("canceled queued job executed (execs=%d)", execs.Load())
	}
}

// TestQueueFullBackpressure: a full queue rejects with depth info
// instead of buffering.
func TestQueueFullBackpressure(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	m := newTestManager(t, Options{
		Workers:    1,
		QueueDepth: 1,
		Exec: func(cfg core.Config) (core.Result, error) {
			started <- struct{}{}
			<-release
			return core.Result{}, nil
		},
	})
	defer close(release)
	if _, _, err := m.Submit(cfgN(1), SubmitOptions{Detached: true}); err != nil {
		t.Fatal(err)
	}
	<-started // dequeued and running; the queue itself is empty again
	if _, _, err := m.Submit(cfgN(2), SubmitOptions{Detached: true}); err != nil {
		t.Fatal(err) // fills the one queue slot
	}
	_, _, err := m.Submit(cfgN(3), SubmitOptions{Detached: true})
	var full *ErrQueueFull
	if !errors.As(err, &full) {
		t.Fatalf("overflow submit error = %v; want ErrQueueFull", err)
	}
	if full.Depth != 1 || full.Cap != 1 {
		t.Errorf("ErrQueueFull = %+v; want depth 1 of cap 1", full)
	}
	if m.Stats().Rejected != 1 {
		t.Errorf("rejected counter = %d; want 1", m.Stats().Rejected)
	}
}

// TestReleaseAbandonsLastWaiter: when every synchronous waiter leaves,
// the job is canceled rather than mining for nobody.
func TestReleaseAbandonsLastWaiter(t *testing.T) {
	started := make(chan string, 1)
	m := newTestManager(t, Options{Workers: 1, Exec: ctlLoopExec(started)})
	j, _, err := m.Submit(cfgN(4), SubmitOptions{}) // not detached: one waiter
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if !m.Release(j) {
		t.Fatal("last-waiter release did not abandon the job")
	}
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned job never unwound")
	}
	if st := j.Snapshot().State; st != StateCanceled {
		t.Errorf("abandoned job state = %s; want canceled", st)
	}
}

// TestDetachedJobSurvivesRelease: an async job keeps running with zero
// waiters.
func TestDetachedJobSurvivesRelease(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	m := newTestManager(t, Options{
		Workers: 1,
		Exec: func(cfg core.Config) (core.Result, error) {
			started <- struct{}{}
			<-release
			return core.Result{VectorsMined: 1}, nil
		},
	})
	j, _, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	// A sync waiter coalesces on, then leaves: must not kill the job.
	j2, info, err := m.Submit(cfgN(4), SubmitOptions{})
	if err != nil || !info.Coalesced || j2 != j {
		t.Fatalf("coalesce: %+v %v", info, err)
	}
	<-started
	if m.Release(j2) {
		t.Fatal("release of coalesced waiter canceled a detached job")
	}
	close(release)
	<-j.Done()
	if st := j.Snapshot().State; st != StateDone {
		t.Errorf("detached job state = %s; want done", st)
	}
}

// TestTTLEviction: finished jobs vanish from the store after the TTL.
func TestTTLEviction(t *testing.T) {
	m := newTestManager(t, Options{
		Workers: 1,
		TTL:     30 * time.Millisecond,
		Exec: func(cfg core.Config) (core.Result, error) {
			return core.Result{}, nil
		},
	})
	j, _, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := m.Get(j.ID()); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("finished job never evicted past TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Eviction drops the job record, not the cached result.
	if _, info, _ := m.Submit(cfgN(4), SubmitOptions{Detached: true}); !info.Cached {
		t.Error("result cache lost the entry on job eviction")
	}
}

// TestFailedJobIsolation: a panicking mine lands in failed with the
// panic message, and the worker survives to run the next job.
func TestFailedJobIsolation(t *testing.T) {
	m := newTestManager(t, Options{
		Workers: 1,
		Exec: func(cfg core.Config) (core.Result, error) {
			if cfg.CutoffRadius == 13 {
				panic("boom")
			}
			return core.Result{VectorsMined: 1}, nil
		},
	})
	bad, _, err := m.Submit(cfgN(13), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	<-bad.Done()
	snap := bad.Snapshot()
	if snap.State != StateFailed || snap.Err == "" {
		t.Fatalf("panicked job snapshot = %+v", snap)
	}
	// Failed results must not be cached.
	if _, info, _ := m.Submit(cfgN(13), SubmitOptions{Detached: true}); info.Cached {
		t.Error("failed result served from cache")
	}
	good, _, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	<-good.Done()
	if st := good.Snapshot().State; st != StateDone {
		t.Errorf("worker did not survive the panic: next job state = %s", st)
	}
}

// TestShutdownDrains: shutdown cancels queued jobs, lets running jobs
// finish within the deadline, and rejects new submissions.
func TestShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	m := NewManager(Options{
		DB:      tinyDB(),
		Workers: 1,
		Logf:    t.Logf,
		Exec: func(cfg core.Config) (core.Result, error) {
			started <- struct{}{}
			<-release
			return core.Result{VectorsMined: 1}, nil
		},
	})
	running, _, err := m.Submit(cfgN(1), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, _, err := m.Submit(cfgN(2), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release) // the running job finishes well inside the drain window
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("drain within deadline returned %v", err)
	}
	if st := running.Snapshot().State; st != StateDone {
		t.Errorf("running job state after graceful drain = %s; want done", st)
	}
	if st := queued.Snapshot().State; st != StateCanceled {
		t.Errorf("queued job state after shutdown = %s; want canceled", st)
	}
	if _, _, err := m.Submit(cfgN(3), SubmitOptions{Detached: true}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after shutdown = %v; want ErrClosed", err)
	}
}

// TestShutdownDeadlineCancelsRunning: a drain that overruns its budget
// trips the running controllers into partial results.
func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	started := make(chan string, 1)
	m := NewManager(Options{DB: tinyDB(), Workers: 1, Logf: t.Logf, Exec: ctlLoopExec(started)})
	j, _, err := m.Submit(cfgN(1), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("overrun drain returned %v; want deadline exceeded", err)
	}
	snap := j.Snapshot()
	if snap.State != StateCanceled {
		t.Errorf("state after forced drain = %s; want canceled", snap.State)
	}
	if snap.Degradation == nil || snap.Degradation.Reason != runctl.ReasonCancel {
		t.Errorf("degradation after forced drain = %+v", snap.Degradation)
	}
}

// TestStatsCounters sanity-checks the operational counters.
func TestStatsCounters(t *testing.T) {
	m := newTestManager(t, Options{
		Workers: 3,
		Exec: func(cfg core.Config) (core.Result, error) {
			return core.Result{}, nil
		},
	})
	j, _, _ := m.Submit(cfgN(1), SubmitOptions{Detached: true})
	<-j.Done()
	m.Submit(cfgN(1), SubmitOptions{Detached: true}) // cache hit
	st := m.Stats()
	if st.Workers != 3 || st.QueueCap == 0 {
		t.Errorf("stats shape: %+v", st)
	}
	if st.Executions != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("counters: %+v", st)
	}
	if st.ByState[StateDone] != 2 {
		t.Errorf("byState: %+v", st.ByState)
	}
	if st.CacheSize != 1 {
		t.Errorf("cacheSize = %d; want 1", st.CacheSize)
	}
}

// TestStatsMatchRegistry: Stats reads the manager's obs series, so after
// a miss, a cache hit, a coalesce, a queue-full reject and a deadline
// shed every Stats counter equals its registry series. Replayed is
// checked in TestJournalReplaySurfacesFinishedJob.
func TestStatsMatchRegistry(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	reg := obs.NewRegistry()
	m := newTestManager(t, Options{
		Workers: 1, QueueDepth: 1, Metrics: reg,
		Exec: func(cfg core.Config) (core.Result, error) {
			if cfg.CutoffRadius > 1 {
				started <- struct{}{}
				<-release
			}
			return core.Result{}, nil
		},
	})
	defer close(release)
	detached := SubmitOptions{Detached: true}
	j, _, err := m.Submit(cfgN(1), detached) // miss, runs to completion
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if _, info, _ := m.Submit(cfgN(1), detached); !info.Cached {
		t.Fatal("resubmit missed the cache")
	}
	if _, _, err := m.Submit(cfgN(2), detached); err != nil { // miss, holds the worker
		t.Fatal(err)
	}
	<-started
	if _, info, _ := m.Submit(cfgN(2), detached); !info.Coalesced {
		t.Fatal("identical submit did not coalesce")
	}
	if _, _, err := m.Submit(cfgN(3), detached); err != nil { // miss, fills the queue
		t.Fatal(err)
	}
	var full *ErrQueueFull
	if _, _, err := m.Submit(cfgN(4), detached); !errors.As(err, &full) {
		t.Fatalf("overflow submit error = %v; want ErrQueueFull", err)
	}
	m.updateAvgRun(time.Second)
	var shed *ErrDeadline
	if _, _, err := m.Submit(cfgN(5), SubmitOptions{Detached: true, Deadline: time.Now().Add(time.Millisecond)}); !errors.As(err, &shed) {
		t.Fatalf("doomed submit error = %v; want ErrDeadline", err)
	}

	st := m.Stats()
	for _, c := range []struct {
		name        string
		stats, want int64
		series      int64
	}{
		{"busy", int64(st.Busy), 1, reg.Gauge(obs.MJobsBusy).Value()},
		{"executions", st.Executions, 2, reg.Counter(obs.MJobsExecutions).Value()},
		{"coalesced", st.Coalesced, 1, reg.Counter(obs.MJobsCoalesced).Value()},
		{"cacheHits", st.CacheHits, 1, reg.Counter(obs.MJobsCacheHits).Value()},
		{"cacheMisses", st.CacheMisses, 4, reg.Counter(obs.MJobsCacheMisses).Value()},
		{"rejected", st.Rejected, 1, reg.Counter(obs.MJobsRejected).Value()},
		{"shed", st.Shed, 1, reg.Counter(obs.MJobsShed).Value()},
		{"retries", st.Retries, 0, reg.Counter(obs.MJobsRetries).Value()},
		{"stalled", st.Stalled, 0, reg.Counter(obs.MJobsStalled).Value()},
	} {
		if c.stats != c.series || c.stats != c.want {
			t.Errorf("%s: Stats %d, registry %d, want %d", c.name, c.stats, c.series, c.want)
		}
	}
}

// TestProgressSnapshot: a running job exposes live runctl counters.
func TestProgressSnapshot(t *testing.T) {
	started := make(chan string, 1)
	m := newTestManager(t, Options{Workers: 1, Exec: ctlLoopExec(started)})
	j, _, err := m.Submit(cfgN(4), SubmitOptions{Detached: true})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for {
		p := j.Snapshot().Progress
		if p.Checks > 0 && p.FVMineStates > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no progress observed: %+v", p)
		}
		time.Sleep(2 * time.Millisecond)
	}
	m.Cancel(j.ID())
	<-j.Done()
	if p := j.Snapshot().Progress; p.FVMineStates == 0 {
		t.Errorf("final progress zero: %+v", p)
	}
}

// TestUnsetParallelismUsesWholeHost: a job that leaves Parallelism unset
// reaches the executor with it unset (core then fans out to GOMAXPROCS),
// never split by the pool size; an explicit value passes through.
func TestUnsetParallelismUsesWholeHost(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	got := make(chan int, 1)
	m := newTestManager(t, Options{
		Workers: 2,
		Exec: func(cfg core.Config) (core.Result, error) {
			got <- cfg.Parallelism
			return core.Result{}, nil
		},
	})
	for _, want := range []int{0, 3} {
		cfg := cfgN(4 + want)
		cfg.Parallelism = want
		j, _, err := m.Submit(cfg, SubmitOptions{Detached: true})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
		p := <-got
		switch {
		case want == 0 && p != 0 && p != runtime.GOMAXPROCS(0):
			t.Errorf("unset Parallelism reached the executor as %d; want 0 or GOMAXPROCS %d, not GOMAXPROCS/Workers", p, runtime.GOMAXPROCS(0))
		case want != 0 && p != want:
			t.Errorf("Parallelism %d reached the executor as %d", want, p)
		}
	}
}

package jobs

// durability.go is the crash-recovery and overload-protection side of
// the Manager: write-ahead journaling of job lifecycle events, startup
// replay (re-enqueueing interrupted jobs with their last resumable
// checkpoint, surfacing finished results), transient-failure retries
// with jittered exponential backoff, deadline-aware admission control,
// and the stall watchdog. Everything here degrades gracefully: a nil
// journal means an in-memory manager identical to the pre-durability
// behavior, and a journal append failure is logged and counted, never
// turned into a job failure.

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/journal"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// Durability defaults.
const (
	// DefaultRetryBackoff is the base of the exponential retry backoff.
	DefaultRetryBackoff = 500 * time.Millisecond
	// maxRetryBackoff caps the exponential growth.
	maxRetryBackoff = 30 * time.Second
)

// ErrDeadline is returned by Submit when deadline-aware admission
// control sheds the job: the expected queue wait alone already exceeds
// the caller's completion deadline, so accepting the job could only
// burn a worker on an answer nobody will wait for.
type ErrDeadline struct {
	// ExpectedWait is the predicted time until a worker frees up.
	ExpectedWait time.Duration
	// Deadline is the caller's completion deadline.
	Deadline time.Time
}

func (e *ErrDeadline) Error() string {
	return fmt.Sprintf("jobs: shed: expected queue wait %s exceeds deadline", e.ExpectedWait.Round(time.Millisecond))
}

// journalFor appends ev for j when the manager has a journal and the
// job's submission was journaled. Failures are logged and counted by
// the journal itself; a job never fails because its audit trail did.
func (m *Manager) journalFor(j *Job, ev journal.Event) {
	if m.opts.Journal == nil || !j.journaled {
		return
	}
	ev.Job = j.id
	if ev.AtMs == 0 {
		ev.AtMs = journal.NowMs()
	}
	if err := m.opts.Journal.Append(ev); err != nil {
		m.logf("jobs: journal append (%s %s): %v", ev.Type, j.id, err)
	}
}

// retryBackoff computes the delay before re-running attempt+1:
// base × 2^attempt, capped, scaled by a jitter factor in [0.5, 1.5) so
// a burst of same-instant failures does not re-converge on the queue.
func (m *Manager) retryBackoff(attempt int) time.Duration {
	base := m.opts.RetryBackoff
	if base <= 0 {
		base = DefaultRetryBackoff
	}
	d := base << uint(attempt)
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// scheduleRetry books a transient failure and re-enqueues j after a
// backoff. Called from run() with no locks held.
func (m *Manager) scheduleRetry(j *Job, nextAttempt int, cause error) {
	backoff := m.retryBackoff(nextAttempt - 1)
	m.retries.Add(1)
	m.met.retries.Inc()
	m.journalFor(j, journal.Event{Type: journal.EvRetrying, Attempt: nextAttempt, Error: cause.Error()})
	m.logf("jobs: %s attempt %d failed (%v); retry %d in %s", j.id, nextAttempt-1, cause, nextAttempt, backoff.Round(time.Millisecond))
	timer := time.AfterFunc(backoff, func() { m.requeue(j) })
	j.mu.Lock()
	j.retryTimer = timer
	j.mu.Unlock()
}

// requeue puts a retry-pending job back on the queue when its backoff
// fires. The job may have been canceled or the manager closed in the
// meantime; both settle the job instead of re-running it.
func (m *Manager) requeue(j *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.mu.Lock()
	j.retryPending = false
	j.retryTimer = nil
	if j.state != StateQueued {
		j.mu.Unlock()
		return // canceled (or otherwise settled) during backoff
	}
	if m.closed {
		j.err = ErrClosed
		j.finishLocked(StateFailed, time.Now())
		j.mu.Unlock()
		delete(m.byKey, j.key)
		m.met.finished(StateFailed).Inc()
		m.journalFor(j, journal.Event{Type: journal.EvFailed, Error: ErrClosed.Error()})
		return
	}
	select {
	case m.queue <- j:
		j.inQueue = true
		j.mu.Unlock()
		m.met.queueDepth.Set(int64(len(m.queue)))
	default:
		j.err = fmt.Errorf("jobs: retry dropped: %w", &ErrQueueFull{Depth: len(m.queue), Cap: cap(m.queue)})
		err := j.err
		j.finishLocked(StateFailed, time.Now())
		j.mu.Unlock()
		delete(m.byKey, j.key)
		m.met.finished(StateFailed).Inc()
		m.journalFor(j, journal.Event{Type: journal.EvFailed, Error: err.Error()})
	}
}

// updateAvgRun folds one finished execution into the EWMA service-time
// estimate admission control divides the backlog by. The estimate
// starts at zero (= unknown), so a cold manager never sheds.
func (m *Manager) updateAvgRun(run time.Duration) {
	for {
		old := m.avgRunNs.Load()
		next := int64(run)
		if old > 0 {
			next = old*4/5 + int64(run)/5
		}
		if next <= 0 {
			next = 1
		}
		if m.avgRunNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// expectedWaitLocked predicts how long a newly enqueued job waits for a
// worker: the EWMA service time spread over the queue backlog plus the
// remaining halves of the runs in flight, divided across the pool.
// Caller holds m.mu.
func (m *Manager) expectedWaitLocked() time.Duration {
	avg := m.avgRunNs.Load()
	if avg <= 0 {
		return 0 // no service-time evidence yet: admit everything
	}
	backlog := float64(len(m.queue)) + 0.5*float64(m.busy.Load())
	return time.Duration(float64(avg) * backlog / float64(m.opts.Workers))
}

// watchdog cancels running jobs whose runctl checkpoints stop advancing
// for Options.StallTimeout: a mine that makes any progress bumps its
// controller's amortized check counter, so a flat counter across the
// window means the pipeline is wedged (deadlocked dependency, livelocked
// search) and the worker should be reclaimed. The canceled job books a
// degradation report through the normal cancel path and is flagged
// Stalled on its snapshot.
func (m *Manager) watchdog() {
	interval := m.opts.StallTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	lastChecks := map[string]int64{}
	lastAdvance := map[string]time.Time{}
	for {
		select {
		case <-m.janitorStop:
			return
		case now := <-t.C:
			m.sweepStalls(now, lastChecks, lastAdvance)
		}
	}
}

// sweepStalls is one watchdog tick over the running jobs.
func (m *Manager) sweepStalls(now time.Time, lastChecks map[string]int64, lastAdvance map[string]time.Time) {
	type running struct {
		j   *Job
		ctl *runctl.Controller
	}
	m.mu.Lock()
	var live []running
	for _, j := range m.jobs {
		j.mu.Lock()
		if j.state == StateRunning && j.ctl != nil {
			live = append(live, running{j, j.ctl})
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()

	seen := map[string]bool{}
	for _, r := range live {
		id := r.j.id
		seen[id] = true
		checks := r.ctl.Spent().Checks
		prev, known := lastChecks[id]
		if !known || checks != prev {
			lastChecks[id] = checks
			lastAdvance[id] = now
			continue
		}
		if now.Sub(lastAdvance[id]) < m.opts.StallTimeout {
			continue
		}
		r.j.mu.Lock()
		alreadyStalled := r.j.stalled
		r.j.stalled = true
		r.j.mu.Unlock()
		if alreadyStalled {
			continue // cancel already issued; the pipeline is unwinding
		}
		m.stalled.Add(1)
		m.met.stalled.Inc()
		m.logf("jobs: %s stalled (no controller progress for %s); canceling", id, m.opts.StallTimeout)
		r.ctl.Cancel(fmt.Sprintf("stall watchdog: no progress for %s", m.opts.StallTimeout))
	}
	for id := range lastChecks {
		if !seen[id] {
			delete(lastChecks, id)
			delete(lastAdvance, id)
		}
	}
}

// replay rebuilds the job store from the journal's startup fold:
// terminal records become finished store entries (completed results warm
// the dedup cache), interrupted records re-enter the queue as detached
// jobs resuming from their last checkpoint. Records that no longer
// decode — config schema drift, a different database — are marked
// failed in the journal so they stop replaying. Called from NewManager
// before the manager is published; workers are already consuming.
func (m *Manager) replay(records []journal.JobRecord) {
	for i := range records {
		rec := &records[i]
		if rec.Terminal != "" {
			m.replayFinished(rec)
			continue
		}
		m.replayInterrupted(rec)
	}
}

func (m *Manager) replayOutcome(outcome string) {
	m.replayed.Add(1)
	m.met.replayed(outcome).Inc()
}

// replayFinished surfaces a terminal job from the journal.
func (m *Manager) replayFinished(rec *journal.JobRecord) {
	j := &Job{
		id:        rec.ID,
		key:       rec.Key,
		label:     rec.Label,
		timeout:   time.Duration(rec.TimeoutMs) * time.Millisecond,
		done:      make(chan struct{}),
		detached:  true,
		journaled: true,
		created:   time.UnixMilli(rec.SubmittedMs),
		finished:  time.UnixMilli(rec.FinishedMs),
		attempt:   rec.Attempt,
	}
	switch rec.Terminal {
	case journal.EvCompleted:
		res, err := core.DecodeResult(rec.Result)
		if err != nil {
			m.logf("jobs: replay %s: result undecodable, dropping: %v", rec.ID, err)
			m.replayOutcome("dropped")
			return
		}
		j.state = StateDone
		j.result = &res
		if res.Truncated {
			j.degradation = &res.Degradation
		}
	case journal.EvFailed:
		j.state = StateFailed
		j.err = errors.New(rec.Error)
	case journal.EvCancelled:
		j.state = StateCanceled
		j.degradation = &runctl.Degradation{Truncated: true, Reason: runctl.ReasonCancel, Detail: rec.Error}
	default:
		m.replayOutcome("dropped")
		return
	}
	close(j.done)

	m.mu.Lock()
	m.jobs[j.id] = j
	if j.state == StateDone && !j.result.Truncated {
		m.cache.put(j.key, *j.result)
	}
	entries, _ := m.cache.stats()
	m.met.cacheEntries.Set(int64(entries))
	m.mu.Unlock()
	m.replayOutcome("finished")
}

// replayInterrupted re-enqueues a job the last process never finished.
func (m *Manager) replayInterrupted(rec *journal.JobRecord) {
	drop := func(why string, err error) {
		m.logf("jobs: replay %s: %s: %v", rec.ID, why, err)
		m.replayOutcome("dropped")
		// Mark the record terminal so it stops resurfacing on every
		// restart; use the journal directly — journalFor needs a job.
		if aerr := m.opts.Journal.Append(journal.Event{
			Type: journal.EvFailed, Job: rec.ID, AtMs: journal.NowMs(),
			Error: fmt.Sprintf("replay: %s: %v", why, err),
		}); aerr != nil {
			m.logf("jobs: journal append (replay drop %s): %v", rec.ID, aerr)
		}
	}
	cfg, err := core.DecodeConfig(rec.Config)
	if err != nil {
		drop("config undecodable", err)
		return
	}
	if key := m.KeyFor(cfg); key != rec.Key {
		drop("database or key schema changed", fmt.Errorf("journaled key %.12s, computed %.12s", rec.Key, key))
		return
	}
	j := &Job{
		id:         rec.ID,
		key:        rec.Key,
		cfg:        cfg,
		label:      rec.Label,
		timeout:    time.Duration(rec.TimeoutMs) * time.Millisecond,
		done:       make(chan struct{}),
		state:      StateQueued,
		detached:   true,
		journaled:  true,
		created:    time.UnixMilli(rec.SubmittedMs),
		attempt:    rec.Attempt,
		checkpoint: rec.Checkpoint,
	}
	j.inQueue = true // set before the send; a worker may own j after it
	m.mu.Lock()
	select {
	case m.queue <- j:
		m.jobs[j.id] = j
		m.byKey[j.key] = j
		m.met.queueDepth.Set(int64(len(m.queue)))
		m.mu.Unlock()
		m.replayOutcome("requeued")
	default:
		j.inQueue = false
		m.mu.Unlock()
		drop("queue full at replay", &ErrQueueFull{Depth: len(m.queue), Cap: cap(m.queue)})
	}
}

// obsReplayed builds the per-outcome replay counter accessor.
func obsReplayed(r *obs.Registry) func(outcome string) *obs.Counter {
	return func(outcome string) *obs.Counter {
		return r.Counter(obs.MJobsReplayed, "outcome", outcome)
	}
}

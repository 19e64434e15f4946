// Package jobs is the asynchronous job-orchestration layer between the
// HTTP surface and the mining pipeline. It decouples mining execution
// from request handling with four cooperating pieces:
//
//   - a bounded FIFO queue with backpressure: when the queue is full,
//     Submit fails fast with an ErrQueueFull carrying depth info
//     instead of buffering unboundedly;
//   - a fixed worker pool executing mines under per-job runctl
//     controllers, so every job is cancelable, deadline-bounded, and
//     budget-bounded, and a canceled or timed-out job still lands with
//     a valid partial result plus a degradation report;
//   - an in-memory job store with states queued → running → done /
//     failed / canceled, TTL-based eviction of finished jobs, and
//     per-job progress snapshots sourced from the controller's stage
//     counters;
//   - a dedup layer: jobs are keyed by a canonical hash of (database
//     fingerprint, normalized mining config). Identical requests that
//     are concurrent coalesce onto one execution (singleflight), and
//     identical requests that are sequential hit an LRU result cache
//     and complete instantly. Truncated results are never cached — a
//     rerun under different runtime limits may do strictly better.
//
// Lock ordering: Manager.mu before Job.mu, never the reverse.
package jobs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/journal"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// Defaults for Options fields left zero.
const (
	DefaultWorkers    = 2
	DefaultQueueDepth = 32
	DefaultTTL        = 15 * time.Minute
	DefaultCacheSize  = 128
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Finished reports whether the state is terminal.
func (s State) Finished() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ExecFunc runs one mine. cfg arrives with Ctl set to the job's
// controller and Parallelism to the job's share of the host. An error
// (a failed read of the database) fails the attempt: the job is retried
// under Options.MaxRetries or ends failed, and is never cached. The
// default executes core.MineSource over the manager's database; tests
// inject counters or blocking fakes here.
type ExecFunc func(cfg core.Config) (core.Result, error)

// Options configures a Manager.
type Options struct {
	// DB is the immutable database every job mines. Its fingerprint
	// scopes the dedup key, so a manager over a different database can
	// never collide in a shared-nothing deployment.
	DB []*graph.Graph
	// DBFingerprint, when non-empty, is graph.Fingerprint of the served
	// database, precomputed by the caller — a store manifest carries it
	// on disk, and a server that loaded DB from memory hashed it once
	// at startup. When empty the manager hashes DB itself. Required
	// when DB is nil (store-backed managers run a custom Exec and never
	// hold the corpus in memory).
	DBFingerprint string
	// Generation is the store generation of the served database (0 for
	// an in-memory corpus). It is folded into every dedup key, so after
	// an incremental append — same directory, new generation — stale
	// cached patterns and journal records from the old generation can
	// never be served, even transiently.
	Generation int64
	// Workers is the pool size (0 = DefaultWorkers). Each worker runs
	// one mine at a time; mines are internally parallel, so a handful
	// of workers saturates the machine. A mine whose Config leaves
	// Parallelism unset runs at core's default, GOMAXPROCS: mines
	// running at once share the host through the Go scheduler, and a
	// lone mine uses all of it.
	Workers int
	// QueueDepth bounds jobs waiting for a worker (0 = DefaultQueueDepth).
	QueueDepth int
	// TTL is how long finished jobs stay retrievable (0 = DefaultTTL).
	TTL time.Duration
	// CacheSize bounds the dedup result cache, in entries
	// (0 = DefaultCacheSize; negative = cache disabled).
	CacheSize int
	// Exec overrides the mine executor (nil = core.MineSource over DB).
	Exec ExecFunc
	// Logf receives operational log lines (log.Printf when nil).
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the manager's operational metrics
	// (queue depth, worker utilization, cache hit/miss/coalesce counts)
	// and is handed to every job's controller, so mining-stage metrics
	// land in the same registry. Nil keeps the manager's own series in a
	// private registry, which Stats reads, and leaves its mines
	// unmetered.
	Metrics *obs.Registry
	// Journal, when non-nil, receives every job lifecycle event as a
	// durable write-ahead record, and each running mine's resumable
	// checkpoints. Nil means a purely in-memory manager.
	Journal *journal.Journal
	// Replay is the journal's startup fold (journal.Open's second
	// return): terminal jobs are surfaced with their persisted results,
	// interrupted jobs re-enter the queue resuming from their
	// checkpoint chain.
	Replay []journal.JobRecord
	// MaxRetries bounds automatic re-runs of failed jobs (0 = retries
	// disabled). Canceled runs are never retried.
	MaxRetries int
	// RetryBackoff is the base of the jittered exponential backoff
	// between attempts (0 = DefaultRetryBackoff).
	RetryBackoff time.Duration
	// StallTimeout, when > 0, arms the stall watchdog: a running job
	// whose controller checkpoints stop advancing for this long is
	// canceled and flagged Stalled.
	StallTimeout time.Duration
	// CheckpointEvery overrides the mining pipeline's snapshot
	// granularity, in committed groups (0 = core's default). Only
	// meaningful with a Journal.
	CheckpointEvery int
}

// SubmitOptions parameterizes one Submit.
type SubmitOptions struct {
	// Label is a human-readable tag carried on snapshots.
	Label string
	// Timeout bounds the mine's execution time, measured from when a
	// worker picks the job up — queue wait does not eat the budget
	// (0 = unbounded).
	Timeout time.Duration
	// Detached marks the job as owned by the store rather than by its
	// waiters: it survives with zero waiters until TTL eviction. Async
	// API submissions are detached; synchronous callers are not, so a
	// sync mine whose every client disconnected is canceled instead of
	// burning a worker for nobody.
	Detached bool
	// Meta is an opaque embedder payload echoed on snapshots (the HTTP
	// layer stores presentation parameters like the result limit).
	Meta any
	// Deadline, when non-zero, is the caller's completion deadline.
	// Admission control sheds the submission with ErrDeadline when the
	// expected queue wait alone already overshoots it. Zero opts out.
	Deadline time.Time
}

// SubmitInfo reports how a Submit was satisfied.
type SubmitInfo struct {
	// Coalesced: an identical job was already queued or running; the
	// returned job is that one, no new execution was scheduled.
	Coalesced bool
	// Cached: an identical mine already completed; the returned job was
	// born finished with the cached result.
	Cached bool
}

// ErrQueueFull is returned by Submit when the queue has no room. It
// carries the depth info a client needs for a useful 503.
type ErrQueueFull struct {
	Depth, Cap int
}

func (e *ErrQueueFull) Error() string {
	return fmt.Sprintf("jobs: queue full (%d of %d queued)", e.Depth, e.Cap)
}

// ErrClosed is returned by Submit after Shutdown began.
var ErrClosed = errors.New("jobs: manager shut down")

// Snapshot is a point-in-time public view of a job.
type Snapshot struct {
	ID    string
	Key   string
	Label string
	State State
	// Cached: the job never executed; its result came from the cache.
	Cached bool
	// CancelRequested: Cancel was called; on a running job the state
	// flips to canceled once the pipeline unwinds.
	CancelRequested bool
	Created         time.Time
	Started         time.Time // zero until running
	Finished        time.Time // zero until terminal
	// Progress is the live controller spend for running jobs and the
	// final spend for finished ones.
	Progress runctl.Spent
	// Result is non-nil once the job finished executing (including the
	// partial result of a canceled run). Nil for queued/running/failed.
	Result *core.Result
	// Degradation is non-nil when the run was cut short.
	Degradation *runctl.Degradation
	// Err is the failure message for StateFailed.
	Err     string
	Waiters int
	Meta    any
	// Attempt is the 0-based execution attempt; > 0 means the job was
	// retried after transient failures.
	Attempt int
	// Stalled: the stall watchdog canceled this job because its
	// controller checkpoints stopped advancing.
	Stalled bool
}

// Job is one unit of mining work. All mutable state is guarded; read
// it through Snapshot.
type Job struct {
	id   string
	key  string
	meta any

	cfg     core.Config
	label   string
	timeout time.Duration
	// journaled: the submission was durably recorded, so lifecycle
	// events keep appending. Written before the job is published and
	// immutable afterwards.
	journaled bool
	// submitted is closed once Submit has journaled the submission (nil
	// for jobs that need no wait). The job is on the queue before that
	// append, so run waits on it before journaling anything: a fold
	// ignores lifecycle events that precede a job's submission.
	submitted chan struct{}

	done chan struct{} // closed exactly once, on reaching a terminal state

	mu              sync.Mutex
	state           State
	detached        bool
	waiters         int
	cached          bool
	cancelRequested bool
	created         time.Time
	started         time.Time
	finished        time.Time
	ctl             *runctl.Controller
	result          *core.Result
	degradation     *runctl.Degradation
	err             error
	// attempt is the 0-based execution attempt (bumped per retry).
	attempt int
	// checkpoints is the job's resumable snapshot chain, in emit order,
	// from the journal replay and this process's own checkpoint sink.
	// Each part holds a set of finished groups; the next (re)run resumes
	// from their union (core.ResumeChain) and mines the rest.
	checkpoints [][]byte
	// inQueue: the job is physically referenced by the queue channel.
	// The janitor never evicts such a job — a worker will still
	// dequeue it — even when cancellation already made it terminal.
	inQueue bool
	// retryPending: a backoff timer holds the job for re-enqueueing;
	// eviction must wait for it to fire.
	retryPending bool
	// stalled: the watchdog canceled this job for lack of progress.
	stalled bool
}

// ID returns the job's stable identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot captures the job's current public state.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:              j.id,
		Key:             j.key,
		Label:           j.label,
		State:           j.state,
		Cached:          j.cached,
		CancelRequested: j.cancelRequested,
		Created:         j.created,
		Started:         j.started,
		Finished:        j.finished,
		Progress:        j.ctl.Spent(), // nil-safe: zeros before running
		Result:          j.result,
		Degradation:     j.degradation,
		Waiters:         j.waiters,
		Meta:            j.meta,
		Attempt:         j.attempt,
		Stalled:         j.stalled,
	}
	if j.err != nil {
		s.Err = j.err.Error()
	}
	return s
}

// finish moves the job to a terminal state. Caller holds j.mu.
func (j *Job) finishLocked(state State, now time.Time) {
	j.state = state
	j.finished = now
	close(j.done)
}

// Stats is a point-in-time view of the manager's counters.
type Stats struct {
	Workers     int           `json:"workers"`
	Busy        int           `json:"busy"`
	QueueDepth  int           `json:"queueDepth"`
	QueueCap    int           `json:"queueCap"`
	Jobs        int           `json:"jobs"`
	ByState     map[State]int `json:"byState,omitempty"`
	Executions  int64         `json:"executions"`
	Coalesced   int64         `json:"coalesced"`
	CacheHits   int64         `json:"cacheHits"`
	CacheMisses int64         `json:"cacheMisses"`
	Rejected    int64         `json:"rejected"`
	Shed        int64         `json:"shed"`
	Retries     int64         `json:"retries"`
	Replayed    int64         `json:"replayed"`
	Stalled     int64         `json:"stalled"`
	CacheSize   int           `json:"cacheSize"`
	CacheCap    int           `json:"cacheCap"`
}

// Manager owns the queue, the worker pool, the job store, and the
// result cache. Create one per served database with NewManager; it is
// safe for concurrent use.
type Manager struct {
	opts  Options
	exec  ExecFunc
	dbFP  string
	cache *resultCache

	queue chan *Job

	mu     sync.Mutex
	closed bool
	jobs   map[string]*Job // every live (unevicted) job by id
	byKey  map[string]*Job // the queued-or-running job per dedup key

	workers     sync.WaitGroup
	janitorStop chan struct{}
	// background tracks the janitor and the stall watchdog, which exit
	// once janitorStop closes.
	background sync.WaitGroup
	// draining flips when Shutdown's drain deadline passes: every
	// running job is being canceled, and run() self-cancels jobs that
	// slipped through the dequeue/running-snapshot window.
	draining atomic.Bool

	seq atomic.Int64
	// avgRunNs is the EWMA of executed-job wall time, in nanoseconds;
	// 0 = no evidence yet. Admission control divides the backlog by it.
	avgRunNs atomic.Int64

	met managerMetrics
}

// managerMetrics caches the manager's obs series so hot paths skip the
// registry lookup. They are the manager's only counters: Stats reads
// them back, so with a nil Options.Metrics they live in a private
// registry.
type managerMetrics struct {
	reg          *obs.Registry
	queueDepth   *obs.Gauge
	busy         *obs.Gauge
	cacheEntries *obs.Gauge
	executions   *obs.Counter
	coalesced    *obs.Counter
	cacheHits    *obs.Counter
	cacheMisses  *obs.Counter
	rejected     *obs.Counter
	shed         *obs.Counter
	retries      *obs.Counter
	stalled      *obs.Counter
	replayed     func(outcome string) *obs.Counter
	runSeconds   *obs.Histogram
	finished     func(state State) *obs.Counter
}

func newManagerMetrics(r *obs.Registry, workers, queueCap int) managerMetrics {
	r.Gauge(obs.MJobsWorkers).Set(int64(workers))
	r.Gauge(obs.MJobsQueueCap).Set(int64(queueCap))
	return managerMetrics{
		reg:          r,
		queueDepth:   r.Gauge(obs.MJobsQueueDepth),
		busy:         r.Gauge(obs.MJobsBusy),
		cacheEntries: r.Gauge(obs.MJobsCacheSize),
		executions:   r.Counter(obs.MJobsExecutions),
		coalesced:    r.Counter(obs.MJobsCoalesced),
		cacheHits:    r.Counter(obs.MJobsCacheHits),
		cacheMisses:  r.Counter(obs.MJobsCacheMisses),
		rejected:     r.Counter(obs.MJobsRejected),
		shed:         r.Counter(obs.MJobsShed),
		retries:      r.Counter(obs.MJobsRetries),
		stalled:      r.Counter(obs.MJobsStalled),
		replayed:     obsReplayed(r),
		runSeconds:   r.Histogram(obs.MJobsRunSeconds, obs.DefBuckets),
		finished: func(state State) *obs.Counter {
			return r.Counter(obs.MJobsFinished, "state", string(state))
		},
	}
}

// NewManager starts the worker pool and TTL janitor for opt.
func NewManager(opt Options) *Manager {
	if opt.Workers <= 0 {
		opt.Workers = DefaultWorkers
	}
	if opt.QueueDepth <= 0 {
		opt.QueueDepth = DefaultQueueDepth
	}
	if opt.TTL <= 0 {
		opt.TTL = DefaultTTL
	}
	cacheSize := opt.CacheSize
	switch {
	case cacheSize == 0:
		cacheSize = DefaultCacheSize
	case cacheSize < 0:
		cacheSize = 0
	}
	dbFP := opt.DBFingerprint
	if dbFP == "" {
		dbFP = graph.Fingerprint(opt.DB)
	}
	m := &Manager{
		opts:        opt,
		dbFP:        dbFP,
		cache:       newResultCache(cacheSize),
		queue:       make(chan *Job, opt.QueueDepth),
		jobs:        make(map[string]*Job),
		byKey:       make(map[string]*Job),
		janitorStop: make(chan struct{}),
	}
	reg := opt.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m.met = newManagerMetrics(reg, opt.Workers, opt.QueueDepth)
	m.exec = opt.Exec
	if m.exec == nil {
		m.exec = func(cfg core.Config) (core.Result, error) { return core.MineSource(core.Slice(opt.DB), nil, cfg) }
	}
	for i := 0; i < opt.Workers; i++ {
		m.workers.Add(1)
		runctl.Spawn("jobs worker", m.spawnPanic, m.worker)
	}
	m.background.Add(1)
	runctl.Spawn("jobs janitor", m.spawnPanic, m.janitor)
	if opt.StallTimeout > 0 {
		m.background.Add(1)
		runctl.Spawn("jobs stall watchdog", m.spawnPanic, m.watchdog)
	}
	if len(opt.Replay) > 0 {
		m.replay(opt.Replay)
	}
	return m
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// spawnPanic is the Manager's runctl.Spawn recovery sink. By the time
// it runs the goroutine's own deferred cleanups (workers.Done) have
// already executed, so the report is purely informational.
func (m *Manager) spawnPanic(name string, r any, stack []byte) {
	m.logf("jobs: %s panicked: %v\n%s", name, r, stack)
}

// KeyFor returns the canonical dedup key a config submits under — the
// database fingerprint joined with the normalized config hash, scoped
// to the store generation when the database came from a store. An
// append bumps the generation, so every key changes and cached results
// mined against the smaller corpus are unreachable; journal records
// from the old generation fail the replay key check and drop.
func (m *Manager) KeyFor(cfg core.Config) string {
	key := core.MineKey(m.dbFP, cfg)
	if m.opts.Generation > 0 {
		return fmt.Sprintf("g%d:%s", m.opts.Generation, key)
	}
	return key
}

// Submit schedules cfg for execution, or attaches to an identical job
// already in flight, or completes instantly from the result cache.
// The returned job must be balanced with Release by non-detached
// callers once they stop waiting on it.
func (m *Manager) Submit(cfg core.Config, opt SubmitOptions) (*Job, SubmitInfo, error) {
	key := m.KeyFor(cfg)
	now := time.Now()
	// Persist the submission's identity up front, outside the lock: the
	// encode is pure CPU and its failure (a config the wire form cannot
	// carry) just means this job is not durable.
	var cfgBytes []byte
	if m.opts.Journal != nil {
		var err error
		if cfgBytes, err = core.EncodeConfig(cfg); err != nil {
			m.logf("jobs: submission not journaled: %v", err)
		}
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, SubmitInfo{}, ErrClosed
	}
	if j := m.byKey[key]; j != nil {
		m.met.coalesced.Inc()
		j.mu.Lock()
		j.detached = j.detached || opt.Detached
		if !opt.Detached {
			j.waiters++
		}
		j.mu.Unlock()
		m.mu.Unlock()
		return j, SubmitInfo{Coalesced: true}, nil
	}
	if res, ok := m.cache.get(key); ok {
		m.met.cacheHits.Inc()
		j := m.newJobLocked(key, cfg, opt, now)
		j.state = StateDone
		j.cached = true
		j.result = &res
		j.finished = now
		close(j.done)
		m.jobs[j.id] = j
		m.mu.Unlock()
		return j, SubmitInfo{Cached: true}, nil
	}
	// Deadline-aware admission: only a genuinely new execution queues
	// work, so shedding happens after the free paths (coalesce, cache).
	if !opt.Deadline.IsZero() {
		if wait := m.expectedWaitLocked(); wait > 0 && now.Add(wait).After(opt.Deadline) {
			m.met.shed.Inc()
			m.mu.Unlock()
			return nil, SubmitInfo{}, &ErrDeadline{ExpectedWait: wait, Deadline: opt.Deadline}
		}
	}
	m.met.cacheMisses.Inc()
	j := m.newJobLocked(key, cfg, opt, now)
	j.journaled = len(cfgBytes) > 0
	if j.journaled && m.opts.Journal != nil {
		j.submitted = make(chan struct{})
	}
	// inQueue is set before the send: the moment the job is on the
	// channel a worker may own it, so no unlocked writes after that.
	j.inQueue = true
	select {
	case m.queue <- j:
	default:
		j.inQueue = false
		m.met.rejected.Inc()
		m.mu.Unlock()
		return nil, SubmitInfo{}, &ErrQueueFull{Depth: len(m.queue), Cap: cap(m.queue)}
	}
	m.met.queueDepth.Set(int64(len(m.queue)))
	m.jobs[j.id] = j
	m.byKey[key] = j
	m.mu.Unlock()

	// Journal after releasing the lock (the fsync must not serialize
	// unrelated submissions) but before acknowledging to the caller, so
	// an acked job is always recoverable.
	m.journalFor(j, journal.Event{
		Type: journal.EvSubmitted, Key: key, Label: opt.Label,
		Config: cfgBytes, TimeoutMs: opt.Timeout.Milliseconds(), AtMs: now.UnixMilli(),
	})
	if j.submitted != nil {
		close(j.submitted)
	}
	return j, SubmitInfo{}, nil
}

func (m *Manager) newJobLocked(key string, cfg core.Config, opt SubmitOptions, now time.Time) *Job {
	var rnd [6]byte
	rand.Read(rnd[:])
	j := &Job{
		id:       fmt.Sprintf("j%d-%s", m.seq.Add(1), hex.EncodeToString(rnd[:])),
		key:      key,
		meta:     opt.Meta,
		cfg:      cfg,
		label:    opt.Label,
		timeout:  opt.Timeout,
		done:     make(chan struct{}),
		state:    StateQueued,
		detached: opt.Detached,
		created:  now,
	}
	if !opt.Detached {
		j.waiters = 1
	}
	return j
}

// Get returns the job with the given id.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// List snapshots every live job, newest first.
func (m *Manager) List() []Snapshot {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	out := make([]Snapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Created.Equal(out[k].Created) {
			return out[i].Created.After(out[k].Created)
		}
		return out[i].ID > out[k].ID
	})
	return out
}

// Cancel requests cancellation of the job with the given id. A queued
// job is finished immediately as canceled; a running job has its
// controller tripped and lands in canceled with a degradation report
// once the pipeline unwinds. Returns false when the id is unknown; a
// job already finished returns true with no effect.
func (m *Manager) Cancel(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return false
	}
	m.cancelLocked(j, "cancel requested")
	return true
}

// cancelLocked cancels j. Caller holds m.mu.
func (m *Manager) cancelLocked(j *Job, detail string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.cancelRequested = true
		j.degradation = &runctl.Degradation{
			Truncated: true,
			Reason:    runctl.ReasonCancel,
			Detail:    detail + " before start",
		}
		delete(m.byKey, j.key)
		j.finishLocked(StateCanceled, time.Now())
		m.journalFor(j, journal.Event{Type: journal.EvCancelled, Error: detail + " before start"})
	case StateRunning:
		j.cancelRequested = true
		j.ctl.Cancel(detail) // the run unwinds; the worker finalizes the state
	default:
		// Already terminal: idempotent no-op.
	}
}

// Release signals that one waiter stopped caring about the job. When
// the last waiter of a non-detached job leaves before it finished, the
// job is canceled (nobody can ever read the result) and Release
// reports true so the caller knows a partial result is imminent on
// Done.
func (m *Manager) Release(j *Job) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.mu.Lock()
	j.waiters--
	abandon := j.waiters <= 0 && !j.detached && !j.state.Finished()
	j.mu.Unlock()
	if abandon {
		m.cancelLocked(j, "abandoned by all waiters")
	}
	return abandon
}

// worker executes jobs until the queue closes.
func (m *Manager) worker() {
	defer m.workers.Done()
	for j := range m.queue {
		m.met.queueDepth.Set(int64(len(m.queue)))
		m.run(j)
	}
}

// run executes one job end to end (one attempt; a transient failure
// with retry budget loops the job back through the queue).
func (m *Manager) run(j *Job) {
	j.mu.Lock()
	j.inQueue = false
	if j.state != StateQueued { // canceled while waiting in the queue
		j.mu.Unlock()
		return
	}
	attempt := j.attempt
	checkpoints := j.checkpoints
	var deadline time.Time
	if j.timeout > 0 {
		deadline = time.Now().Add(j.timeout)
	}
	// With a journal, every snapshot part the mine emits is both
	// appended to the job's chain (so a retry in this process resumes)
	// and appended to the WAL (so a restarted process resumes).
	var sink func([]byte)
	if m.opts.Journal != nil && j.journaled {
		sink = func(payload []byte) {
			j.mu.Lock()
			j.checkpoints = append(j.checkpoints, payload)
			j.mu.Unlock()
			m.journalFor(j, journal.Event{Type: journal.EvCheckpoint, State: payload})
		}
	}
	ctl := runctl.New(runctl.Options{Deadline: deadline, Metrics: m.opts.Metrics, CheckpointSink: sink})
	j.ctl = ctl
	j.state = StateRunning
	started := time.Now()
	j.started = started
	j.err = nil
	j.mu.Unlock()

	// Every executor mines under the job's controller, at the job's own
	// Parallelism; unset, core fans out to GOMAXPROCS, and mines running
	// at once share the host through the Go scheduler. The fingerprint
	// computed once at startup spares checkpoint identity a re-hash of
	// the corpus per run.
	cfg := j.cfg
	cfg.Ctl = ctl
	cfg.DBFingerprint = m.dbFP
	if m.opts.CheckpointEvery > 0 {
		cfg.CheckpointEvery = m.opts.CheckpointEvery
	}
	if len(checkpoints) > 0 {
		if rs, err := core.ResumeChain(checkpoints); err == nil {
			cfg.Resume = rs
		} else {
			// A foreign part or an undecodable one: the chain is
			// rejected as core rejects a foreign snapshot.
			m.met.reg.Counter(obs.MResumeRejected).Inc()
			m.logf("jobs: %s checkpoint chain rejected, mining from scratch: %v", j.id, err)
		}
	}
	if j.submitted != nil {
		<-j.submitted
	}
	m.journalFor(j, journal.Event{Type: journal.EvStarted, Attempt: attempt})

	// Handshake with Shutdown's drain deadline: the flag is set before
	// the running-job sweep, so a job that reached running after the
	// sweep observes the flag here and self-cancels; a job that reached
	// running before is caught by the sweep.
	if m.draining.Load() {
		m.mu.Lock()
		m.cancelLocked(j, "server shutting down")
		m.mu.Unlock()
	}

	m.met.busy.Add(1)
	m.met.executions.Inc()
	res, err := m.execIsolated(cfg)
	m.met.busy.Add(-1)

	now := time.Now()
	// Every execution, terminal or retried, occupied a worker for this
	// long — exactly what the admission-control wait estimate needs.
	m.updateAvgRun(now.Sub(started))
	m.met.runSeconds.Observe(now.Sub(started).Seconds())

	m.mu.Lock()
	j.mu.Lock()
	// Read the report under the job lock: the stall watchdog cancels
	// and flags a running job under it too, so a job flagged Stalled
	// always settles canceled.
	deg := ctl.Report()
	canceled := j.cancelRequested || (deg.Truncated && deg.Reason == runctl.ReasonCancel)
	if err != nil && !canceled && !m.draining.Load() && attempt < m.opts.MaxRetries {
		// Failure with retry budget left: back to queued; the
		// backoff timer re-enqueues, and the next attempt resumes from
		// the checkpoint chain instead of from zero.
		j.state = StateQueued
		j.attempt = attempt + 1
		j.retryPending = true
		j.ctl = nil
		j.started = time.Time{}
		j.mu.Unlock()
		m.mu.Unlock()
		m.scheduleRetry(j, attempt+1, err)
		return
	}
	j.err = err
	if err == nil {
		j.result = &res
	}
	if deg.Truncated {
		j.degradation = &deg
	}
	state := StateDone
	switch {
	case err != nil:
		state = StateFailed
	case canceled:
		state = StateCanceled
	}
	// Cache before Done closes: a caller woken by Done that resubmits the
	// same request must hit the cache.
	if state == StateDone && !res.Truncated {
		m.cache.put(j.key, res)
	}
	j.finishLocked(state, now)
	j.mu.Unlock()
	if m.byKey[j.key] == j {
		delete(m.byKey, j.key)
	}
	entries, _ := m.cache.stats()
	m.met.cacheEntries.Set(int64(entries))
	m.mu.Unlock()
	m.met.finished(state).Inc()

	switch state {
	case StateDone:
		var resultBytes []byte
		if buf, encErr := core.EncodeResult(res); encErr == nil {
			resultBytes = buf
		} else {
			m.logf("jobs: %s result not journaled: %v", j.id, encErr)
		}
		m.journalFor(j, journal.Event{Type: journal.EvCompleted, Result: resultBytes, AtMs: now.UnixMilli()})
	case StateFailed:
		m.journalFor(j, journal.Event{Type: journal.EvFailed, Error: err.Error(), AtMs: now.UnixMilli()})
	case StateCanceled:
		m.journalFor(j, journal.Event{Type: journal.EvCancelled, Error: deg.Detail, AtMs: now.UnixMilli()})
	}

	switch {
	case err != nil:
		m.logf("jobs: %s failed after %s: %v", j.id, now.Sub(started).Round(time.Millisecond), err)
	case deg.Truncated:
		m.logf("jobs: %s %s after %s: %s", j.id, state, now.Sub(started).Round(time.Millisecond), deg.String())
	}
}

// execIsolated runs the executor behind a panic barrier so one
// pathological mine cannot take down the worker pool; a panic is a
// failure like any other.
func (m *Manager) execIsolated(cfg core.Config) (res core.Result, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("mine panicked: %v", rec)
		}
	}()
	return m.exec(cfg)
}

// janitor evicts finished jobs past their TTL.
func (m *Manager) janitor() {
	defer m.background.Done()
	interval := m.opts.TTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.janitorStop:
			return
		case now := <-t.C:
			m.evictExpired(now)
		}
	}
}

// evictExpired drops finished jobs whose TTL passed. Only terminal
// jobs are reaped, and even a terminal job is held while anything still
// references it: a worker that will yet dequeue it from the queue
// channel (canceled-in-queue jobs stay physically enqueued), or a
// pending retry-backoff timer. A queued or running job is never
// evicted, however old — its worker owns it.
func (m *Manager) evictExpired(now time.Time) {
	cutoff := now.Add(-m.opts.TTL)
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, j := range m.jobs {
		j.mu.Lock()
		expired := j.state.Finished() && !j.inQueue && !j.retryPending &&
			j.finished.Before(cutoff)
		j.mu.Unlock()
		if expired {
			delete(m.jobs, id)
		}
	}
}

// Stats snapshots the manager's operational counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	byState := make(map[State]int)
	jobs := len(m.jobs)
	for _, j := range m.jobs {
		j.mu.Lock()
		byState[j.state]++
		j.mu.Unlock()
	}
	depth := len(m.queue)
	qcap := cap(m.queue)
	m.mu.Unlock()
	entries, capacity := m.cache.stats()
	var replayed int64
	snap := m.met.reg.Snapshot()
	for _, outcome := range snap.LabelValues(obs.MJobsReplayed, "outcome") {
		replayed += snap.CounterValue(obs.MJobsReplayed, "outcome", outcome)
	}
	return Stats{
		Workers:     m.opts.Workers,
		Busy:        int(m.met.busy.Value()),
		QueueDepth:  depth,
		QueueCap:    qcap,
		Jobs:        jobs,
		ByState:     byState,
		Executions:  m.met.executions.Value(),
		Coalesced:   m.met.coalesced.Value(),
		CacheHits:   m.met.cacheHits.Value(),
		CacheMisses: m.met.cacheMisses.Value(),
		Rejected:    m.met.rejected.Value(),
		Shed:        m.met.shed.Value(),
		Retries:     m.met.retries.Value(),
		Replayed:    replayed,
		Stalled:     m.met.stalled.Value(),
		CacheSize:   entries,
		CacheCap:    capacity,
	}
}

// Shutdown drains the manager: new submissions are rejected, queued
// jobs are canceled (their results could never be retrieved after the
// process exits), and running jobs get until ctx is done to finish
// before their controllers are tripped. Shutdown returns once every
// worker has exited; the returned error is ctx's if the drain deadline
// forced cancellation. The janitor and the stall watchdog have exited
// too by then, so neither logs, evicts nor cancels after Shutdown
// returns. Idempotent.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.workers.Wait()
		m.background.Wait()
		return nil
	}
	m.closed = true
	close(m.janitorStop)
	// Cancel everything still queued, then close the queue so workers
	// exit once the backlog of already-dequeued jobs completes.
	for {
		select {
		case j := <-m.queue:
			j.mu.Lock()
			j.inQueue = false // drained here; no worker will dequeue it
			j.mu.Unlock()
			m.cancelLocked(j, "server shutting down")
			continue
		default:
		}
		break
	}
	close(m.queue)
	m.mu.Unlock()

	done := make(chan struct{})
	runctl.Spawn("jobs shutdown waiter", m.spawnPanic, func() {
		m.workers.Wait()
		m.background.Wait()
		close(done)
	})
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Drain deadline passed: trip every running controller and wait for
	// the pipeline to unwind into partial results. The flag is set
	// before the sweep so run() self-cancels any job that reaches
	// running after the sweep collected its victims.
	m.draining.Store(true)
	m.mu.Lock()
	for _, j := range m.jobs {
		m.cancelLocked(j, "shutdown drain deadline")
	}
	m.mu.Unlock()
	<-done
	return ctx.Err()
}

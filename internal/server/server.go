// Package server exposes a loaded chemical screen over HTTP: significant-
// subgraph mining, indexed substructure search, and single-pattern
// significance evaluation. Molecules cross the wire as SMILES; everything
// else is JSON. The server is read-only over its database and safe for
// concurrent requests.
//
//	POST /mine          {"maxPvalue":0.1,"minFreqPct":0.1,"radius":4,"topK":0,"timeoutMs":30000}
//	POST /query         {"smiles":"c1ccccc1"}
//	POST /significance  {"smiles":"[Sb](O)(O)O"}
//	POST /jobs/mine     same body as /mine; answers 202 + a job id
//	GET  /jobs          list live jobs
//	GET  /jobs/{id}     job status, progress, and (when finished) result
//	DELETE /jobs/{id}   cancel a queued or running job
//	GET  /stats
//	GET  /healthz
//
// Mining — synchronous and asynchronous alike — runs through the jobs
// subsystem (internal/jobs): identical concurrent requests coalesce
// into one execution, identical repeat requests hit a result cache,
// and every run is bounded by a per-job runctl controller.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"graphsig/internal/chem"
	"graphsig/internal/core"
	"graphsig/internal/gindex"
	"graphsig/internal/graph"
	"graphsig/internal/jobs"
	"graphsig/internal/journal"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
	"graphsig/internal/rwr"
	"graphsig/internal/shard"
	"graphsig/internal/store"
)

// Operational defaults; override the Server fields before Handler().
const (
	// DefaultMaxConcurrent bounds simultaneously served requests.
	DefaultMaxConcurrent = 64
	// DefaultMaxBodyBytes caps request bodies.
	DefaultMaxBodyBytes = 1 << 20
	// DefaultMineTimeout applies when a /mine request names none.
	DefaultMineTimeout = 30 * time.Second
	// DefaultMineTimeoutCap clamps client-requested mine timeouts so a
	// request cannot pin a worker past the server's write timeout.
	DefaultMineTimeoutCap = 2 * time.Minute
)

// Server answers mining and search requests over one immutable database.
type Server struct {
	// db is the in-memory corpus (New). Store-backed servers
	// (NewFromStore) leave it nil and serve mining lazily through the
	// segment reader; the auxiliary read models (/query, /significance)
	// materialize the corpus on first use via database().
	db    []*graph.Graph
	alpha *graph.Alphabet

	// reader and coord are set on store-backed servers: the lazy
	// segment reader and the scatter-gather mining coordinator.
	reader *store.Reader
	coord  *shard.Coordinator

	// MaxConcurrent bounds simultaneously served requests; excess
	// requests get an immediate 503 (0 = unbounded).
	MaxConcurrent int
	// MaxBodyBytes caps request body size (0 = unbounded).
	MaxBodyBytes int64
	// MineTimeoutCap clamps the /mine deadline a request may ask for.
	MineTimeoutCap time.Duration
	// JobWorkers, JobQueueDepth, JobTTL, and JobCacheSize configure the
	// jobs subsystem (zero = the internal/jobs defaults). Set them
	// before the first request or Jobs() call.
	JobWorkers    int
	JobQueueDepth int
	JobTTL        time.Duration
	JobCacheSize  int
	// Journal, when non-nil, makes job lifecycles durable: submissions,
	// checkpoints, and outcomes are written through it, and
	// JournalReplay (the fold journal.Open returned) is re-enqueued or
	// surfaced on manager startup. The server does not own the journal;
	// close it after Close().
	Journal       *journal.Journal
	JournalReplay []journal.JobRecord
	// JobMaxRetries, JobRetryBackoff, JobStallTimeout, and
	// JobCheckpointEvery configure the durability layer (zero = the
	// internal/jobs defaults: no retries, no watchdog).
	JobMaxRetries      int
	JobRetryBackoff    time.Duration
	JobStallTimeout    time.Duration
	JobCheckpointEvery int
	// Logf receives operational log lines (degraded mines, panics);
	// log.Printf when nil.
	Logf func(format string, args ...any)
	// Metrics is the server's observability registry, served at
	// GET /metrics (Prometheus text) and GET /debug/vars (JSON) and
	// shared with the jobs subsystem and every per-job mining
	// controller. New() installs a fresh registry; replace it before
	// the first request or Jobs() call, or set nil to disable.
	Metrics *obs.Registry
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose stacks and timings, so they
	// are opt-in (cmd/serve -pprof).
	EnablePprof bool

	mu    sync.Mutex
	index *gindex.Index // built lazily on the first /query

	vecOnce sync.Once
	vectors []rwr.NodeVector // built lazily on the first /significance
	vecCfg  core.Config

	jobsOnce sync.Once
	jobsMgr  *jobs.Manager
	// mineFn overrides the job executor (tests count executions or
	// inject blocking fakes); nil = the manager's default over the
	// in-memory database, or the shard coordinator over the store.
	mineFn jobs.ExecFunc
}

// New creates a server over db. Node labels must follow the standard
// chemistry alphabet (datagen output or SMILES input qualify).
func New(db []*graph.Graph) *Server {
	s := &Server{
		db:             db,
		alpha:          chem.Alphabet(),
		vecCfg:         core.Defaults(),
		MaxConcurrent:  DefaultMaxConcurrent,
		MaxBodyBytes:   DefaultMaxBodyBytes,
		MineTimeoutCap: DefaultMineTimeoutCap,
		Metrics:        obs.NewRegistry(),
	}
	s.Metrics.Gauge(obs.MDBGraphs).Set(int64(len(db)))
	return s
}

// StoreOptions configures NewFromStore.
type StoreOptions struct {
	// Shards is the scatter-gather partition count (minimum 1).
	Shards int
	// Strategy maps graph positions to shards (the zero value is
	// shard.Contiguous, as in shard.Options).
	Strategy shard.Strategy
	// CachedSegments bounds the reader's raw-segment LRU
	// (0 = store.DefaultCachedSegments); each read decodes one graph,
	// unless every segment fits and the reader keeps them decoded.
	CachedSegments int
}

// NewFromStore creates a server over a persistent segment store built
// by store.Build / `graphsig store build`. The corpus is served lazily
// — mining streams shard by shard through the reader's segment LRU, so
// a database larger than RAM is servable — and mining scatter-gathers
// across opts.Shards shards with results byte-identical to an
// unsharded in-memory mine. The store's fingerprint and generation
// scope every job cache key, so results cached before an append can
// never be served after it.
func NewFromStore(dir string, opts StoreOptions) (*Server, error) {
	if opts.Shards < 1 {
		opts.Shards = 1
	}
	reg := obs.NewRegistry()
	r, err := store.Open(dir, store.Options{CachedSegments: opts.CachedSegments, Metrics: reg})
	if err != nil {
		return nil, err
	}
	coord, err := shard.New(r, shard.Options{
		Shards:      opts.Shards,
		Strategy:    opts.Strategy,
		Fingerprint: r.Fingerprint(),
		Metrics:     reg,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		alpha:          chem.Alphabet(),
		reader:         r,
		coord:          coord,
		vecCfg:         core.Defaults(),
		MaxConcurrent:  DefaultMaxConcurrent,
		MaxBodyBytes:   DefaultMaxBodyBytes,
		MineTimeoutCap: DefaultMineTimeoutCap,
		Metrics:        reg,
	}
	s.Metrics.Gauge(obs.MDBGraphs).Set(int64(r.Len()))
	return s, nil
}

// Store reports the backing store's generation, graph count, and
// scatter-gather shard width; ok is false on in-memory servers.
func (s *Server) Store() (generation int64, graphs, shards int, ok bool) {
	if s.reader == nil {
		return 0, 0, 0, false
	}
	return s.reader.Generation(), s.reader.Len(), s.coord.Shards(), true
}

// database returns the full in-memory corpus, materializing it from
// the store on first use. The mining path never calls this — it
// streams through the shard coordinator — but the auxiliary read
// models (substructure index, database RWR vectors) operate on the
// whole corpus and pay the materialization once, on first demand.
func (s *Server) database() ([]*graph.Graph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.db == nil && s.reader != nil {
		db, err := s.reader.Graphs()
		if err != nil {
			return nil, err
		}
		s.db = db
	}
	return s.db, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Handler returns the HTTP handler: the endpoint mux behind the
// hardening middleware, all behind the HTTP metrics wrapper —
// instrumentation is outermost so 503s from the concurrency limit and
// 500s from recovered panics are recorded with their final status.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("POST /mine", s.handleMine)
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("POST /significance", s.handleSignificance)
	mux.HandleFunc("POST /jobs/mine", s.handleJobSubmit)
	mux.HandleFunc("GET /jobs", s.handleJobList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/vars", s.handleDebugVars)
	if s.EnablePprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return instrumentHTTP(s.Metrics,
		recoverPanics(limitConcurrency(s.MaxConcurrent, capRequestBody(s.MaxBodyBytes, mux))))
}

// handleMetrics serves the registry in Prometheus text exposition
// format: counters, gauges, and cumulative histogram buckets for every
// live series, deterministically ordered.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	s.Metrics.WritePrometheus(w)
}

// handleDebugVars serves a JSON snapshot of the same registry —
// expvar-style, but scoped to graphsig's own series.
func (s *Server) handleDebugVars(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics.Snapshot())
}

type statsResponse struct {
	Graphs   int     `json:"graphs"`
	AvgAtoms float64 `json:"avgAtoms"`
	AvgBonds float64 `json:"avgBonds"`
	// Generation and Shards are set on store-backed servers: the
	// manifest generation being served and the scatter-gather width.
	Generation int64 `json:"generation,omitempty"`
	Shards     int   `json:"shards,omitempty"`
	// Jobs carries the jobs-subsystem counters: queue depth, worker
	// utilization, cache hit rate, and job-state census.
	Jobs jobs.Stats `json:"jobs"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{Jobs: s.Jobs().Stats()}
	if s.reader != nil {
		// The manifest carries the corpus totals; answering from it
		// keeps /stats O(1) instead of materializing every segment.
		m := s.reader.Manifest()
		resp.Graphs = m.Graphs
		resp.Generation = m.Generation
		resp.Shards = s.coord.Shards()
		if m.Graphs > 0 {
			resp.AvgAtoms = float64(m.Nodes) / float64(m.Graphs)
			resp.AvgBonds = float64(m.Edges) / float64(m.Graphs)
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// reader is nil on this path, so database() is just a locked read
	// of the in-memory corpus — it cannot fail.
	db, _ := s.database()
	atoms, bonds := 0, 0
	for _, g := range db {
		atoms += g.NumNodes()
		bonds += g.NumEdges()
	}
	resp.Graphs = len(db)
	if len(db) > 0 {
		resp.AvgAtoms = float64(atoms) / float64(len(db))
		resp.AvgBonds = float64(bonds) / float64(len(db))
	}
	writeJSON(w, http.StatusOK, resp)
}

type mineRequest struct {
	MaxPvalue  float64 `json:"maxPvalue"`
	MinFreqPct float64 `json:"minFreqPct"`
	Radius     int     `json:"radius"`
	TopK       int     `json:"topK"`
	TimeoutMs  int     `json:"timeoutMs"`
	Limit      int     `json:"limit"`
	// DeadlineMs, when > 0, is the client's tolerance for total
	// latency: admission control sheds the request with 503 +
	// Retry-After when the expected queue wait alone exceeds it.
	DeadlineMs int `json:"deadlineMs"`
}

// submitDeadline maps the client's latency tolerance onto an absolute
// admission deadline (zero time = no deadline, never shed).
func submitDeadline(deadlineMs int) time.Time {
	if deadlineMs <= 0 {
		return time.Time{}
	}
	return time.Now().Add(time.Duration(deadlineMs) * time.Millisecond)
}

type minedPattern struct {
	SMILES    string  `json:"smiles"`
	PValue    float64 `json:"pValue"`
	Support   int     `json:"support"`
	Frequency float64 `json:"frequency"`
	Nodes     int     `json:"nodes"`
	Edges     int     `json:"edges"`
	// Unverified distinguishes "graph-space support unknown" (the
	// verification phase was skipped, tripped, or crashed) from a true
	// support of zero.
	Unverified bool `json:"unverified,omitempty"`
}

type mineResponse struct {
	Patterns  []minedPattern      `json:"patterns"`
	Truncated bool                `json:"truncated"`
	ElapsedMs int64               `json:"elapsedMs"`
	Cached    bool                `json:"cached,omitempty"`
	Degraded  *runctl.Degradation `json:"degradation,omitempty"`
}

// mineTimeout clamps the client-requested timeout into (0, cap]. The
// countdown starts when a worker picks the job up, so queue wait does
// not eat the mining budget.
func (s *Server) mineTimeout(timeoutMs int) time.Duration {
	d := DefaultMineTimeout
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if s.MineTimeoutCap > 0 && (d <= 0 || d > s.MineTimeoutCap) {
		d = s.MineTimeoutCap
	}
	if d < 0 {
		d = 0
	}
	return d
}

// mineConfig maps a request onto the mining parameters. Everything
// here is part of the job's dedup identity; presentation (Limit) and
// runtime limits (TimeoutMs) are deliberately not.
func mineConfig(req mineRequest) core.Config {
	cfg := core.Defaults()
	if req.MaxPvalue > 0 {
		cfg.MaxPvalue = req.MaxPvalue
	}
	if req.MinFreqPct > 0 {
		cfg.MinFreqPct = req.MinFreqPct
	}
	if req.Radius > 0 {
		cfg.CutoffRadius = req.Radius
	}
	cfg.TopKPerLabel = req.TopK
	return cfg
}

// Jobs returns the server's job manager, creating it on first use.
// Configure the Job* fields before the first call.
func (s *Server) Jobs() *jobs.Manager {
	s.jobsOnce.Do(func() {
		// Snapshot the corpus under mu: a concurrent request may be
		// materializing it in database() right now.
		s.mu.Lock()
		db := s.db
		s.mu.Unlock()
		exec := s.mineFn
		var fp string
		var gen int64
		if s.coord != nil {
			// Store-backed: jobs mine through the scatter-gather
			// coordinator instead of an in-memory core.Mine, and the
			// dedup key is scoped by the manifest fingerprint and
			// generation so results cached before an append can never be
			// served after it. A store read failure fails the job.
			fp = s.reader.Fingerprint()
			gen = s.reader.Generation()
			if exec == nil {
				exec = s.coord.Mine
			}
		}
		s.jobsMgr = jobs.NewManager(jobs.Options{
			DB:              db,
			DBFingerprint:   fp,
			Generation:      gen,
			Workers:         s.JobWorkers,
			QueueDepth:      s.JobQueueDepth,
			TTL:             s.JobTTL,
			CacheSize:       s.JobCacheSize,
			Exec:            exec,
			Logf:            s.Logf,
			Metrics:         s.Metrics,
			Journal:         s.Journal,
			Replay:          s.JournalReplay,
			MaxRetries:      s.JobMaxRetries,
			RetryBackoff:    s.JobRetryBackoff,
			StallTimeout:    s.JobStallTimeout,
			CheckpointEvery: s.JobCheckpointEvery,
		})
	})
	return s.jobsMgr
}

// Close drains the jobs subsystem: running mines get until ctx is done
// to finish before being canceled into partial results. A server whose
// manager was never started closes immediately (the no-op Do claims
// the once, so a later Jobs() call cannot resurrect the pool).
func (s *Server) Close(ctx context.Context) error {
	s.jobsOnce.Do(func() {})
	if s.jobsMgr == nil {
		return nil
	}
	return s.jobsMgr.Shutdown(ctx)
}

// handleMine is the synchronous mining path. It routes through the
// same job queue, coalescing, and result cache as /jobs/mine: the
// handler submits (or attaches to) a job and waits. A client that
// disconnects releases its claim; when it was the last waiter the job
// is canceled through runctl and the partial result is still rendered
// for the benefit of connection-level buffering and tests.
func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	var req mineRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		decodeError(w, err)
		return
	}
	t0 := time.Now()
	job, info, err := s.Jobs().Submit(mineConfig(req), jobs.SubmitOptions{
		Label:    "mine (sync)",
		Timeout:  s.mineTimeout(req.TimeoutMs),
		Deadline: submitDeadline(req.DeadlineMs),
	})
	if err != nil {
		submitError(w, err)
		return
	}
	released := false
	select {
	case <-job.Done():
	case <-r.Context().Done():
		released = true
		if s.Jobs().Release(job) {
			// We were the last waiter: the job is being canceled; wait
			// for the pipeline to unwind into its partial result.
			<-job.Done()
		} else {
			select {
			case <-job.Done():
			default:
				// Other waiters keep the job alive; this client is gone.
				return
			}
		}
	}
	if !released {
		s.Jobs().Release(job)
	}
	snap := job.Snapshot()
	if snap.State == jobs.StateFailed {
		httpError(w, http.StatusInternalServerError, "mine failed: %s", snap.Err)
		return
	}
	resp := renderMine(snap, req.Limit)
	resp.Cached = info.Cached
	resp.ElapsedMs = time.Since(t0).Milliseconds()
	if resp.Degraded != nil {
		s.logf("server: mine degraded after %s: %s", time.Since(t0).Round(time.Millisecond), resp.Degraded.String())
	}
	writeJSON(w, http.StatusOK, resp)
}

// renderMine shapes a finished job's result for the wire. Patterns is
// always an array, never null — an empty mine renders as [].
func renderMine(snap jobs.Snapshot, limit int) mineResponse {
	resp := mineResponse{Patterns: []minedPattern{}}
	if snap.Degradation != nil {
		resp.Truncated = true
		resp.Degraded = snap.Degradation
	}
	if snap.Result == nil {
		return resp
	}
	res := snap.Result
	resp.Truncated = res.Truncated || resp.Truncated
	if limit <= 0 || limit > len(res.Subgraphs) {
		limit = len(res.Subgraphs)
	}
	for _, sg := range res.Subgraphs[:limit] {
		smiles, err := chem.WriteSMILES(sg.Graph)
		if err != nil {
			continue
		}
		resp.Patterns = append(resp.Patterns, minedPattern{
			SMILES:     smiles,
			PValue:     sg.VectorPValue,
			Support:    sg.Support,
			Frequency:  sg.Frequency,
			Nodes:      sg.Graph.NumNodes(),
			Edges:      sg.Graph.NumEdges(),
			Unverified: sg.Unverified,
		})
	}
	return resp
}

// submitErrorBody is the structured 503 answer for rejected
// submissions: enough for a client to implement informed backoff
// without parsing prose.
type submitErrorBody struct {
	Error string `json:"error"`
	// Reason is machine-readable: "queue_full", "deadline", "shutdown".
	Reason string `json:"reason"`
	// RetryAfterMs mirrors the Retry-After header in milliseconds.
	RetryAfterMs int64 `json:"retryAfterMs,omitempty"`
	// QueueDepth/QueueCap are set on queue_full rejections.
	QueueDepth int `json:"queueDepth,omitempty"`
	QueueCap   int `json:"queueCap,omitempty"`
	// ExpectedWaitMs is set on deadline sheds: the admission
	// controller's queue-wait estimate that exceeded the deadline.
	ExpectedWaitMs int64 `json:"expectedWaitMs,omitempty"`
}

// retryAfterSeconds renders a backoff hint for the Retry-After header,
// rounding up so "wait 300ms" never becomes "retry immediately".
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// submitError maps a Submit failure onto a status: overload rejections
// (queue full, deadline shed) answer 503 with a Retry-After header and
// a structured JSON body; shutdown answers 503 plain.
func submitError(w http.ResponseWriter, err error) {
	var full *jobs.ErrQueueFull
	if errors.As(err, &full) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, submitErrorBody{
			Error:        err.Error(),
			Reason:       "queue_full",
			RetryAfterMs: time.Second.Milliseconds(),
			QueueDepth:   full.Depth,
			QueueCap:     full.Cap,
		})
		return
	}
	var shed *jobs.ErrDeadline
	if errors.As(err, &shed) {
		w.Header().Set("Retry-After", retryAfterSeconds(shed.ExpectedWait))
		writeJSON(w, http.StatusServiceUnavailable, submitErrorBody{
			Error:          err.Error(),
			Reason:         "deadline",
			RetryAfterMs:   shed.ExpectedWait.Milliseconds(),
			ExpectedWaitMs: shed.ExpectedWait.Milliseconds(),
		})
		return
	}
	if errors.Is(err, jobs.ErrClosed) {
		writeJSON(w, http.StatusServiceUnavailable, submitErrorBody{
			Error:  "server shutting down",
			Reason: "shutdown",
		})
		return
	}
	httpError(w, http.StatusInternalServerError, "%v", err)
}

type smilesRequest struct {
	SMILES string `json:"smiles"`
}

type queryResponse struct {
	IDs     []int `json:"ids"`
	Support int   `json:"support"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	pattern, ok := s.decodeSMILES(w, r)
	if !ok {
		return
	}
	idx, err := s.lazyIndex()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "loading database: %v", err)
		return
	}
	ids := idx.Query(pattern)
	if ids == nil {
		ids = []int{}
	}
	writeJSON(w, http.StatusOK, queryResponse{IDs: ids, Support: len(ids)})
}

type significanceResponse struct {
	Support   int     `json:"support"`
	Frequency float64 `json:"frequency"`
	PValue    float64 `json:"pValue"`
	LogPValue float64 `json:"logPValue"`
}

func (s *Server) handleSignificance(w http.ResponseWriter, r *http.Request) {
	pattern, ok := s.decodeSMILES(w, r)
	if !ok {
		return
	}
	db, err := s.database()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "loading database: %v", err)
		return
	}
	vectors, err := s.lazyVectors()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "loading database: %v", err)
		return
	}
	stats := core.EvaluateSubgraph(db, vectors, pattern, s.vecCfg)
	writeJSON(w, http.StatusOK, significanceResponse{
		Support:   stats.Support,
		Frequency: stats.Frequency,
		PValue:    stats.PValue,
		LogPValue: stats.LogPValue,
	})
}

func (s *Server) decodeSMILES(w http.ResponseWriter, r *http.Request) (*graph.Graph, bool) {
	var req smilesRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		decodeError(w, err)
		return nil, false
	}
	if req.SMILES == "" {
		httpError(w, http.StatusBadRequest, "missing smiles")
		return nil, false
	}
	g, err := chem.ParseSMILES(req.SMILES)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	if g.NumNodes() == 0 {
		httpError(w, http.StatusBadRequest, "empty pattern")
		return nil, false
	}
	return g, true
}

// lazyIndex builds the substructure index on first use. On a
// store-backed server it materializes the corpus first (database()
// also takes s.mu, so it runs before the lock here).
func (s *Server) lazyIndex() (*gindex.Index, error) {
	db, err := s.database()
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.index == nil {
		s.index = gindex.BuildFrequent(db, gindex.FrequentOptions{
			MinSupportPct:   10,
			MaxPatternEdges: 3,
			MaxPatterns:     128,
		})
	}
	return s.index, nil
}

// lazyVectors builds the database RWR vectors on first use.
func (s *Server) lazyVectors() ([]rwr.NodeVector, error) {
	db, err := s.database()
	if err != nil {
		return nil, err
	}
	s.vecOnce.Do(func() {
		fs := core.BuildFeatureSet(db, s.vecCfg)
		s.vectors, _ = rwr.DatabaseVectors(db, fs, rwr.Config{Alpha: s.vecCfg.Alpha, Bins: s.vecCfg.Bins})
	})
	return s.vectors, nil
}

// Warm eagerly builds the lazily-constructed read models — the
// substructure index behind /query and the RWR vectors behind
// /significance — so the first requests after startup don't pay a
// multi-second cold-start stall. Safe (and cheap) to call more than
// once; safe concurrently with serving. On a store-backed server the
// first error aborts the warm-up; /query and /significance retry the
// materialization per request.
func (s *Server) Warm() error {
	if _, err := s.lazyIndex(); err != nil {
		return err
	}
	_, err := s.lazyVectors()
	return err
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// decodeError maps a JSON decode failure to 413 when the body cap
// tripped, 400 otherwise.
func decodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		return
	}
	httpError(w, http.StatusBadRequest, "bad JSON: %v", err)
}

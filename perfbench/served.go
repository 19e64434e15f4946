package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"graphsig/internal/chem"
	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/jobs"
	"graphsig/internal/journal"
	"graphsig/internal/obs"
	"graphsig/internal/server"
	"graphsig/internal/shard"
	"graphsig/internal/store"
)

// The served-jobs shape: 400 graphs in 13 segments of 32, against a
// segment LRU of 4, mined by 4 hash shards. Two closed-loop clients
// alternate a request with a fresh maxPvalue (a miss in both the result
// cache and the shard vector cache) and a repeat of one of their last 32
// configs (a result-cache hit). A fresh threshold is warmPvalue plus a
// random offset below 2e-9: a new cache key every time, but the same
// amount of mining, so miss latency does not swing with the draws.
const (
	servedGraphs   = 400
	servedRadius   = 3
	segmentGraphs  = 32
	cachedSegments = 4
	servedShards   = 4
	clients        = 2
	repeatWindow   = 32
	pollInterval   = 10 * time.Millisecond
	maxThink       = 400 * time.Millisecond
	// warmPvalue is the warm-up config's threshold; fresh thresholds lie
	// in (warmPvalue, warmPvalue+2e-9) and never equal it.
	warmPvalue = 0.1
)

// wirePattern and wireJob are the parts of GET /jobs/{id} the benchmark
// reads.
type wirePattern struct {
	SMILES     string  `json:"smiles"`
	PValue     float64 `json:"pValue"`
	Support    int     `json:"support"`
	Unverified bool    `json:"unverified,omitempty"`
}

type wireJob struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
	Result *struct {
		Patterns  []wirePattern `json:"patterns"`
		Truncated bool          `json:"truncated"`
	} `json:"result"`
	Error string `json:"error"`
}

// jobRun is one client request, from submit to finished result.
type jobRun struct {
	maxP    float64
	cached  bool
	latency time.Duration
	polls   int
	final   wireJob
	err     error
}

func (r jobRun) ms() float64 { return float64(r.latency.Nanoseconds()) / 1e6 }

// service is a store-backed server with a journal, behind an in-process
// HTTP listener, all under one temporary directory.
type service struct {
	dir   string
	store string
	srv   *server.Server
	jnl   *journal.Journal
	http  *httptest.Server
}

func startService(db []*graph.Graph) (*service, error) {
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "served-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, store: filepath.Join(dir, "store")}
	if _, err := store.Build(s.store, db, store.BuildOptions{SegmentGraphs: segmentGraphs}); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv, err = server.NewFromStore(s.store, server.StoreOptions{Shards: servedShards, Strategy: shard.Hash, CachedSegments: cachedSegments})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv.Logf = func(format string, args ...any) { logf("server: "+format, args...) }
	var replay []journal.JobRecord
	s.jnl, replay, err = journal.Open(filepath.Join(dir, "journal"), journal.Options{Metrics: s.srv.Metrics})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s.srv.Journal, s.srv.JournalReplay = s.jnl, replay
	s.http = httptest.NewServer(s.srv.Handler())
	return s, nil
}

// close stops the listener, drains the jobs, closes the journal and
// removes the directory.
func (s *service) close() error {
	s.http.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Close(ctx)
	if cerr := s.jnl.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// job submits one mine and polls until it finishes.
func (s *service) job(rec *recorder, req int, maxP float64) jobRun {
	r := jobRun{maxP: maxP}
	t0 := time.Now()
	root := rec.start("job", 0, req)
	defer rec.end(root)
	body, err := json.Marshal(map[string]any{"radius": servedRadius, "maxPvalue": maxP})
	if err != nil {
		r.err = err
		return r
	}
	id := rec.start("server.submit", root, req)
	var sub wireJob
	r.err = s.call(http.MethodPost, "/jobs/mine", body, &sub)
	rec.end(id)
	if r.err != nil {
		return r
	}
	r.cached = sub.Cached
	for {
		id := rec.start("server.poll", root, req)
		var st wireJob
		r.err = s.call(http.MethodGet, "/jobs/"+sub.ID, nil, &st)
		rec.end(id)
		r.polls++
		if r.err != nil {
			return r
		}
		if jobs.State(st.State).Finished() {
			r.final = st
			break
		}
		time.Sleep(pollInterval)
	}
	r.latency = time.Since(t0)
	return r
}

// call makes one request and decodes a 2xx JSON answer into out. A
// refusal (503) or any other status is an error.
func (s *service) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, s.http.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.http.Client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// traffic runs the closed-loop clients until the window ends and
// returns every request they made.
func traffic(s *service, seed int64, window time.Duration, rec *recorder) ([]jobRun, time.Duration) {
	deadline := time.Now().Add(window)
	perClient := make([][]jobRun, clients)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
			var fresh []float64
			for k := 0; time.Now().Before(deadline); k++ {
				var p float64
				if k%2 == 1 {
					recent := fresh[max(0, len(fresh)-repeatWindow):]
					p = recent[rng.Intn(len(recent))]
				} else {
					p = warmPvalue + 1e-9*(1+rng.Float64())
					fresh = append(fresh, p)
				}
				perClient[c] = append(perClient[c], s.job(rec, c*1_000_000+k+1, p))
				if k%2 == 1 {
					// Think time after each miss-hit pair keeps the two clients
					// from locking into one phase for a whole run.
					time.Sleep(time.Duration(rng.Int63n(int64(maxThink))))
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []jobRun
	for _, runs := range perClient {
		all = append(all, runs...)
	}
	return all, elapsed
}

// servedConfig is the mine a served request with threshold maxP runs.
func servedConfig(maxP float64) core.Config {
	cfg := mineConfig(servedRadius)
	cfg.MaxPvalue = maxP
	return cfg
}

// render shapes a result the way the server puts it on the wire.
func render(res core.Result) []wirePattern {
	out := []wirePattern{}
	for _, sg := range res.Subgraphs {
		smiles, err := chem.WriteSMILES(sg.Graph)
		if err != nil {
			continue
		}
		out = append(out, wirePattern{SMILES: smiles, PValue: sg.VectorPValue, Support: sg.Support, Unverified: sg.Unverified})
	}
	return out
}

// servedState is the service-side accounting read before and after the
// window.
type servedState struct {
	jobs    jobs.Stats
	snap    obs.Snapshot
	mem     runtime.MemStats
	walSize int64
}

func readServed(s *service) (servedState, error) {
	st := servedState{jobs: s.srv.Jobs().Stats(), snap: s.srv.Metrics.Snapshot(), mem: readMem()}
	fi, err := os.Stat(s.jnl.Path())
	if err != nil {
		return st, fmt.Errorf("stat journal: %w", err)
	}
	st.walSize = fi.Size()
	return st, nil
}

// runServed is the served-jobs workload.
func runServed(o options) (report, error) {
	repeats := setupRepeats
	if o.trace {
		repeats = 1
	}
	var setups []time.Duration
	var db []*graph.Graph
	var svc *service
	for i := 0; i < repeats; i++ {
		if svc != nil {
			if err := svc.close(); err != nil {
				return report{}, err
			}
		}
		t0 := time.Now()
		db = corpus(servedGraphs, o.seed)
		var err error
		if svc, err = startService(db); err != nil {
			return report{}, err
		}
		// Warm-up: one miss, then the same config again as a hit.
		for k := 0; k < 2; k++ {
			if r := svc.job(nil, 0, warmPvalue); r.err != nil || r.final.State != string(jobs.StateDone) {
				svc.close()
				return report{}, fmt.Errorf("warm-up job: state %q, error %v", r.final.State, r.err)
			}
		}
		setups = append(setups, time.Since(t0))
	}
	rep, err := servedWindow(svc, db, o, setups)
	if cerr := svc.close(); err == nil && cerr != nil {
		err = cerr
	}
	return rep, err
}

func servedWindow(svc *service, db []*graph.Graph, o options, setups []time.Duration) (report, error) {
	logf("served-jobs: %d graphs in segments of %d (LRU %d), %d hash shards, radius %d, %d clients polling every %s, seed %d",
		servedGraphs, segmentGraphs, cachedSegments, servedShards, servedRadius, clients, pollInterval, o.seed)
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	before, err := readServed(svc)
	if err != nil {
		return report{}, err
	}
	cpu0 := cpuMs()
	runs, elapsed := traffic(svc, o.seed, o.window, rec)
	cpu := cpuMs() - cpu0
	after, err := readServed(svc)
	if err != nil {
		return report{}, err
	}

	// Every served answer must equal an in-memory core.Mine of the same
	// config over the same corpus.
	var rep report
	refs := map[float64][]wirePattern{}
	var miss, hit []float64
	done := 0
	for _, r := range runs {
		rep.Attempted++
		reason := ""
		switch {
		case r.err != nil:
			reason = r.err.Error()
		case r.final.State != string(jobs.StateDone) || r.final.Result == nil:
			reason = fmt.Sprintf("job ended %s %s", r.final.State, r.final.Error)
		case r.final.Result.Truncated:
			reason = "truncated result"
		default:
			ref, ok := refs[r.maxP]
			if !ok {
				ref = render(core.Mine(db, servedConfig(r.maxP)))
				refs[r.maxP] = ref
			}
			if !slices.Equal(r.final.Result.Patterns, ref) {
				reason = fmt.Sprintf("answer differs from the in-memory mine (%d vs %d patterns)", len(r.final.Result.Patterns), len(ref))
			}
		}
		if reason != "" {
			rep.Failed++
			logf("job maxPvalue=%v: %s", r.maxP, reason)
			continue
		}
		done++
		if r.cached {
			hit = append(hit, r.ms())
		} else {
			miss = append(miss, r.ms())
		}
	}
	rep.Correct = rep.Failed == 0
	logf("%d jobs: %d misses, %d hits (hit share %.3f), hit p50 %.3f ms", len(runs), len(miss), len(hit),
		ratio(float64(len(hit)), float64(len(hit)+len(miss))), median(hit))
	if !o.trace {
		setupMetric(&rep, setups)
		latencyMetrics(&rep, "submit-to-result of a result-cache miss (POST /jobs/mine, then GET /jobs/{id})", miss, done, elapsed)
		rep.set("cpu_ms", ratio(cpu, float64(len(miss))), "ms")
		return rep, nil
	}

	if err := servedLayers(&rep, svc.srv.Jobs(), runs, hit, before, after); err != nil {
		return report{}, err
	}
	cfg := servedConfig(warmPvalue)
	want := render(core.Mine(db, cfg))
	if err := shardMines(&rep, rec, svc.store, cfg, want); err != nil {
		return report{}, err
	}
	staged := stageMine(rec, 0, db, cfg)
	rep.Attempted++
	if staged.truncated || !slices.Equal(render(core.Result{Subgraphs: staged.subs}), want) {
		rep.Failed++
		logf("staged in-memory mine differs from core.Mine")
	}
	rep.Correct = rep.Failed == 0
	if err := rec.finish(tracePath("served-jobs", o.seed)); err != nil {
		return report{}, err
	}
	mineLayers(&rep, rec, []stagedMine{staged})
	kernels(&rep, db, cfg, staged)
	fillLayers(&rep)
	return rep, nil
}

// servedLayers reports the jobs, journal, server, store and shard
// metrics of the traffic window.
func servedLayers(rep *report, mgr *jobs.Manager, runs []jobRun, hit []float64, before, after servedState) error {
	var wait, run, overhead []float64
	polls := 0
	for _, r := range runs {
		polls += r.polls
		job, ok := mgr.Get(r.final.ID)
		if !ok || r.final.State != string(jobs.StateDone) {
			continue
		}
		// The manager's own timestamps, finer than the wire's milliseconds.
		snap := job.Snapshot()
		runMs := 0.0
		if !r.cached && !snap.Started.IsZero() {
			wait = append(wait, float64(snap.Started.Sub(snap.Created).Nanoseconds())/1e6)
			runMs = float64(snap.Finished.Sub(snap.Started).Nanoseconds()) / 1e6
			run = append(run, runMs)
		}
		overhead = append(overhead, r.ms()-runMs)
	}
	jb, ja := before.jobs, after.jobs
	hits, misses := float64(ja.CacheHits-jb.CacheHits), float64(ja.CacheMisses-jb.CacheMisses)
	rep.set("jobs.queue_wait_ms_p50", median(wait), "ms")
	rep.set("jobs.run_ms_p50", median(run), "ms")
	rep.set("jobs.hit_p50_ms", median(hit), "ms")
	rep.set("jobs.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	rep.set("jobs.coalesced", float64(ja.Coalesced-jb.Coalesced), "count")
	rep.set("jobs.refused", float64(ja.Rejected-jb.Rejected+ja.Shed-jb.Shed), "count")
	rep.set("server.overhead_ms_p50", median(overhead), "ms")
	rep.set("server.polls_per_job", ratio(float64(polls), float64(len(runs))), "count")

	delta := func(name string, labels ...string) float64 {
		return float64(after.snap.CounterValue(name, labels...) - before.snap.CounterValue(name, labels...))
	}
	sumDelta := func(name, label string) float64 {
		total := 0.0
		for _, v := range after.snap.LabelValues(name, label) {
			total += delta(name, label, v)
		}
		return total
	}
	rep.set("journal.records", sumDelta(obs.MJournalRecords, "type"), "count")
	rep.set("journal.checkpoints", delta(obs.MJournalRecords, "type", journal.EvCheckpoint), "count")
	rep.set("journal.bytes_per_job", ratio(float64(after.walSize-before.walSize), float64(len(runs))), "B")
	rep.set("store.segment_loads", delta(obs.MStoreSegmentLoads), "count")
	segHits, segMisses := delta(obs.MStoreSegmentCacheHits), delta(obs.MStoreSegmentCacheMisses)
	rep.set("store.segment_hit_ratio", ratio(segHits, segHits+segMisses), "ratio")
	vHits, vMisses := sumDelta(obs.MShardVectorCacheHits, "shard"), sumDelta(obs.MShardVectorCacheMisses, "shard")
	rep.set("shard.vector_cache_hit_ratio", ratio(vHits, vHits+vMisses), "ratio")

	var mem memDelta
	mem.add(before.mem, after.mem)
	return runtimeMetrics(rep, mem, int(ja.Executions-jb.Executions))
}

// timedSource counts and times every graph read a coordinator makes.
type timedSource struct {
	src   shard.Source
	reads atomic.Int64
	busy  atomic.Int64 // nanoseconds
}

func (t *timedSource) Len() int { return t.src.Len() }

func (t *timedSource) Graph(i int) (*graph.Graph, error) {
	t0 := time.Now()
	g, err := t.src.Graph(i)
	t.busy.Add(int64(time.Since(t0)))
	t.reads.Add(1)
	return g, err
}

// shardMines mines the store directly through a shard coordinator, twice
// over a plain reader and twice through a timing source, and checks each
// answer against want. A fresh reader and coordinator per mine keeps both
// the segment and the vector caches cold.
func shardMines(rep *report, rec *recorder, dir string, cfg core.Config, want []wirePattern) error {
	var plain, traced []float64
	var last *timedSource
	for i := 0; i < 4; i++ {
		r, err := store.Open(dir, store.Options{CachedSegments: cachedSegments})
		if err != nil {
			return err
		}
		timed := i%2 == 1
		var src shard.Source = r
		if timed {
			last = &timedSource{src: r}
			src = last
		}
		c, err := shard.New(src, shard.Options{Shards: servedShards, Strategy: shard.Hash, Fingerprint: r.Fingerprint()})
		if err != nil {
			return err
		}
		id := 0
		if timed {
			id = rec.start("shard.mine", 0, 0)
		}
		t := time.Now()
		res, err := c.Mine(cfg)
		took := msSince(t) / 1e3
		if timed {
			rec.end(id)
			traced = append(traced, took)
		} else {
			plain = append(plain, took)
		}
		rep.Attempted++
		if err != nil || res.Truncated || !slices.Equal(render(res), want) {
			rep.Failed++
			logf("direct coordinator mine differs from the in-memory mine (err %v)", err)
		}
	}
	rep.set("shard.mine_wall_s", median(traced), "s")
	rep.set("store.graph_reads", float64(last.reads.Load()), "count")
	rep.set("store.read_busy_s", float64(last.busy.Load())/1e9, "s")
	rep.set("trace.overhead_pct", 100*ratio(median(traced)-median(plain), median(plain)), "%")
	return nil
}

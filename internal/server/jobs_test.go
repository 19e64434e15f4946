package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphsig/internal/chem"
	"graphsig/internal/core"
	"graphsig/internal/jobs"
	"graphsig/internal/runctl"
)

// fakeServer builds a server over a small database with an injected
// mine executor, so job tests are fast and executions are countable.
func fakeServer(t *testing.T, exec jobs.ExecFunc) (*httptest.Server, *Server) {
	t.Helper()
	d := chem.GenerateN(chem.AIDSSpec(), 10)
	s := New(d.Graphs)
	s.Logf = t.Logf
	s.mineFn = exec
	s.JobTTL = time.Minute
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		s.Close(ctx)
	})
	return srv, s
}

// benzeneResult is a small renderable mining result.
func benzeneResult() core.Result {
	g := chem.Benzene()
	return core.Result{
		Subgraphs: []core.Subgraph{{
			Graph:        g,
			VectorPValue: 0.01,
			Support:      5,
			Frequency:    0.5,
		}},
		VectorsMined: 1,
	}
}

// TestJobsMineCoalescesConcurrentIdentical is the HTTP-level
// acceptance criterion: two identical concurrent POST /jobs/mine
// requests execute the pipeline exactly once.
func TestJobsMineCoalescesConcurrentIdentical(t *testing.T) {
	var execs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	srv, _ := fakeServer(t, func(cfg core.Config) (core.Result, error) {
		execs.Add(1)
		started <- struct{}{}
		<-release
		return benzeneResult(), nil
	})

	body := mineRequest{Radius: 3, Limit: 5}
	ids := make([]string, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp jobSubmitResponse
			code := postJSON(t, srv.URL+"/jobs/mine", body, &resp)
			if code != http.StatusAccepted {
				t.Errorf("submit %d: status %d; want 202", i, code)
			}
			ids[i] = resp.ID
		}(i)
	}
	wg.Wait()
	<-started
	close(release)
	if ids[0] != ids[1] {
		t.Fatalf("identical submissions got distinct jobs %q vs %q", ids[0], ids[1])
	}

	// Poll until done; the single execution's result is visible.
	var st jobStatus
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(srv.URL + "/jobs/" + ids[0])
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Finished() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != jobs.StateDone || st.Result == nil || len(st.Result.Patterns) != 1 {
		t.Errorf("final status = %+v", st)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("pipeline executed %d times for 2 identical concurrent requests; want exactly 1", got)
	}
}

// TestJobCancelLifecycle: submit → running with progress → DELETE →
// canceled with a degradation report.
func TestJobCancelLifecycle(t *testing.T) {
	started := make(chan struct{}, 1)
	srv, _ := fakeServer(t, func(cfg core.Config) (core.Result, error) {
		ctl := cfg.Ctl
		started <- struct{}{}
		cp := ctl.Checkpoint(runctl.StageFVMine)
		for {
			if err := cp.Force(); err != nil {
				return core.Result{Truncated: true}, nil
			}
			time.Sleep(time.Millisecond)
		}
	})

	var sub jobSubmitResponse
	if code := postJSON(t, srv.URL+"/jobs/mine", mineRequest{Radius: 3}, &sub); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	<-started

	// Running, with live runctl progress.
	var running jobStatus
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, _ := http.Get(srv.URL + sub.Location)
		json.NewDecoder(resp.Body).Decode(&running)
		resp.Body.Close()
		if running.State == jobs.StateRunning && running.Progress.Checks > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never observed running progress: %+v", running)
		}
		time.Sleep(2 * time.Millisecond)
	}

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+sub.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}

	var final jobStatus
	for {
		r2, _ := http.Get(srv.URL + "/jobs/" + sub.ID)
		json.NewDecoder(r2.Body).Decode(&final)
		r2.Body.Close()
		if final.State.Finished() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled job stuck in %s", final.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final.State != jobs.StateCanceled {
		t.Fatalf("state = %s; want canceled", final.State)
	}
	if final.Degradation == nil || final.Degradation.Reason != runctl.ReasonCancel {
		t.Errorf("degradation = %+v; want cancel reason", final.Degradation)
	}

	// Unknown ids 404 on GET and DELETE.
	r3, _ := http.Get(srv.URL + "/jobs/nope")
	r3.Body.Close()
	if r3.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job status %d", r3.StatusCode)
	}
	req4, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/nope", nil)
	r4, _ := http.DefaultClient.Do(req4)
	r4.Body.Close()
	if r4.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job status %d", r4.StatusCode)
	}
}

// TestSyncMineSharesCacheAndCoalescing: the synchronous /mine path
// rides the same dedup layer — an identical repeat request is served
// from cache without re-executing.
func TestSyncMineSharesCacheAndCoalescing(t *testing.T) {
	var execs atomic.Int64
	srv, _ := fakeServer(t, func(cfg core.Config) (core.Result, error) {
		execs.Add(1)
		return benzeneResult(), nil
	})
	var first, second mineResponse
	if code := postJSON(t, srv.URL+"/mine", mineRequest{Radius: 3}, &first); code != http.StatusOK {
		t.Fatalf("first mine status %d", code)
	}
	if code := postJSON(t, srv.URL+"/mine", mineRequest{Radius: 3}, &second); code != http.StatusOK {
		t.Fatalf("second mine status %d", code)
	}
	if execs.Load() != 1 {
		t.Fatalf("identical sequential /mine executed %d times; want 1", execs.Load())
	}
	if first.Cached || !second.Cached {
		t.Errorf("cached flags: first=%v second=%v; want false/true", first.Cached, second.Cached)
	}
	if len(second.Patterns) != 1 || second.Patterns[0].SMILES == "" {
		t.Errorf("cached response patterns = %+v", second.Patterns)
	}
	// The async endpoint shares the same cache.
	var sub jobSubmitResponse
	if code := postJSON(t, srv.URL+"/jobs/mine", mineRequest{Radius: 3}, &sub); code != http.StatusAccepted {
		t.Fatalf("async submit status %d", code)
	}
	if !sub.Cached {
		t.Error("async submit after sync mine missed the shared cache")
	}
	if execs.Load() != 1 {
		t.Errorf("executions after cache hit = %d", execs.Load())
	}
}

// TestMineEmptyPatternsIsArray: a mine with nothing to report renders
// "patterns":[] — never null (satellite fix).
func TestMineEmptyPatternsIsArray(t *testing.T) {
	srv, _ := fakeServer(t, func(cfg core.Config) (core.Result, error) {
		return core.Result{}, nil // nothing mined
	})
	resp, err := http.Post(srv.URL+"/mine", "application/json", strings.NewReader(`{"radius":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(raw), `"patterns":[]`) {
		t.Errorf("empty mine body = %s; want patterns:[]", raw)
	}
	if strings.Contains(string(raw), "null") {
		t.Errorf("empty mine body contains null: %s", raw)
	}
}

// TestStatsExposesJobCounters: /stats carries queue, worker, and cache
// counters from the jobs subsystem.
func TestStatsExposesJobCounters(t *testing.T) {
	srv, _ := fakeServer(t, func(cfg core.Config) (core.Result, error) {
		return benzeneResult(), nil
	})
	postJSON(t, srv.URL+"/mine", mineRequest{Radius: 3}, nil)
	postJSON(t, srv.URL+"/mine", mineRequest{Radius: 3}, nil) // cache hit
	var stats statsResponse
	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	js := stats.Jobs
	if js.Workers == 0 || js.QueueCap == 0 {
		t.Errorf("job stats shape: %+v", js)
	}
	if js.Executions != 1 || js.CacheHits != 1 || js.CacheMisses != 1 {
		t.Errorf("job counters: %+v", js)
	}
}

// TestQueueFullReturns503: sync and async mining both surface queue
// backpressure as 503 with depth info.
func TestQueueFullReturns503(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	d := chem.GenerateN(chem.AIDSSpec(), 10)
	s := New(d.Graphs)
	s.Logf = t.Logf
	s.JobWorkers = 1
	s.JobQueueDepth = 1
	s.mineFn = func(cfg core.Config) (core.Result, error) {
		started <- struct{}{}
		<-release
		return core.Result{}, nil
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		close(release)
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		s.Close(ctx)
	})

	if code := postJSON(t, srv.URL+"/jobs/mine", mineRequest{Radius: 2}, nil); code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	<-started // worker busy; queue empty
	if code := postJSON(t, srv.URL+"/jobs/mine", mineRequest{Radius: 3}, nil); code != http.StatusAccepted {
		t.Fatalf("second submit status %d", code)
	}
	body, err := json.Marshal(mineRequest{Radius: 4})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/jobs/mine", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submit status %d; want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("queue-full 503 is missing the Retry-After header")
	}
	var errBody submitErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if !strings.Contains(errBody.Error, "queue full") {
		t.Errorf("overflow error = %q", errBody.Error)
	}
	if errBody.Reason != "queue_full" || errBody.QueueCap != 1 || errBody.QueueDepth != 1 || errBody.RetryAfterMs <= 0 {
		t.Errorf("structured overflow body = %+v", errBody)
	}
}

// TestDeadlineShedReturns503: a submission whose deadline the expected
// queue wait already exceeds is shed with 503, Retry-After, and the
// admission controller's wait estimate in the body.
func TestDeadlineShedReturns503(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	d := chem.GenerateN(chem.AIDSSpec(), 10)
	s := New(d.Graphs)
	s.Logf = t.Logf
	s.JobWorkers = 1
	s.JobQueueDepth = 8
	s.mineFn = func(cfg core.Config) (core.Result, error) {
		// Real elapsed time: the EWMA the admission controller keeps is
		// measured, so a no-op executor would never produce a wait
		// estimate above anyone's deadline.
		time.Sleep(25 * time.Millisecond)
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return core.Result{}, nil
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		close(release)
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
		defer cancel()
		s.Close(ctx)
	})

	// Seed the admission controller's run-time estimate: with no history
	// it never sheds, so record one completed run first.
	if code := postJSON(t, srv.URL+"/jobs/mine", mineRequest{Radius: 2}, nil); code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	<-started
	release <- struct{}{}
	deadline := time.Now().Add(5 * time.Second)
	for s.Jobs().Stats().Busy != 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never finished")
		}
		time.Sleep(time.Millisecond)
	}

	// Occupy the worker and stack the queue so the expected wait for a
	// new job is several average run-times.
	if code := postJSON(t, srv.URL+"/jobs/mine", mineRequest{Radius: 3}, nil); code != http.StatusAccepted {
		t.Fatalf("busy submit status %d", code)
	}
	<-started
	for r := 4; r <= 6; r++ {
		if code := postJSON(t, srv.URL+"/jobs/mine", mineRequest{Radius: r}, nil); code != http.StatusAccepted {
			t.Fatalf("queue submit radius=%d status %d", r, code)
		}
	}

	body, err := json.Marshal(mineRequest{Radius: 7, DeadlineMs: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/jobs/mine", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed submit status %d; want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("deadline 503 is missing the Retry-After header")
	}
	var errBody submitErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if errBody.Reason != "deadline" || errBody.ExpectedWaitMs <= 0 {
		t.Errorf("structured shed body = %+v", errBody)
	}
	if got := s.Jobs().Stats().Shed; got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

// TestClientJobHelpers walks the asynchronous job API over raw HTTP:
// submit, poll to done, an identical resubmit served from the cache,
// the job list, and unknown ids.
func TestClientJobHelpers(t *testing.T) {
	var execs atomic.Int64
	srv, _ := fakeServer(t, func(cfg core.Config) (core.Result, error) {
		execs.Add(1)
		return benzeneResult(), nil
	})

	var sub jobSubmitResponse
	if code := postJSON(t, srv.URL+"/jobs/mine", mineRequest{Radius: 3, Limit: 5}, &sub); code != http.StatusAccepted || sub.Coalesced || sub.Cached {
		t.Fatalf("submit: status %d, %+v", code, sub)
	}
	waitForJob(t, srv.URL, sub.ID)
	var j jobStatus
	getJSON(t, srv.URL+"/jobs/"+sub.ID, &j)
	if j.State != jobs.StateDone || j.Result == nil || len(j.Result.Patterns) != 1 {
		t.Fatalf("finished job = %+v", j)
	}
	if _, err := chem.ParseSMILES(j.Result.Patterns[0].SMILES); err != nil {
		t.Errorf("unparseable pattern %q: %v", j.Result.Patterns[0].SMILES, err)
	}

	// Resubmit: cache hit, instantly done.
	var again jobSubmitResponse
	if code := postJSON(t, srv.URL+"/jobs/mine", mineRequest{Radius: 3}, &again); code != http.StatusAccepted || !again.Cached {
		t.Errorf("resubmit: status %d, %+v", code, again)
	}

	var list struct {
		Jobs []jobStatus `json:"jobs"`
	}
	if code := getJSON(t, srv.URL+"/jobs", &list); code != http.StatusOK || len(list.Jobs) < 2 {
		t.Errorf("GET /jobs: status %d, %d entries", code, len(list.Jobs))
	}

	var e struct {
		Error string `json:"error"`
	}
	if code := getJSON(t, srv.URL+"/jobs/nope", &e); code != http.StatusNotFound {
		t.Errorf("GET unknown job status %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/nope", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown job status %d", resp.StatusCode)
	}
}

// TestWarmBuildsLazyModels: Warm constructs the query index and RWR
// vectors so first requests skip the cold start.
func TestWarmBuildsLazyModels(t *testing.T) {
	d := chem.GenerateN(chem.AIDSSpec(), 30)
	s := New(d.Graphs)
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	built := s.index != nil
	s.mu.Unlock()
	if !built {
		t.Error("Warm did not build the query index")
	}
	if vecs, err := s.lazyVectors(); err != nil || vecs == nil {
		t.Errorf("Warm did not build the RWR vectors (err=%v)", err)
	}
	// Idempotent.
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
}

// TestLazyInitConcurrentFirstHit drives the lazyIndex/vecOnce paths
// from many goroutines at once; the race detector guards the
// first-hit construction, and every caller must observe the same
// built artifacts.
func TestLazyInitConcurrentFirstHit(t *testing.T) {
	d := chem.GenerateN(chem.AIDSSpec(), 30)
	s := New(d.Graphs)
	const n = 8
	indexes := make([]any, n)
	vectors := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			idx, err := s.lazyIndex()
			if err != nil {
				t.Error(err)
			}
			indexes[i] = idx
			vecs, err := s.lazyVectors()
			if err != nil {
				t.Error(err)
			}
			vectors[i] = len(vecs)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if indexes[i] != indexes[0] {
			t.Fatalf("goroutine %d saw a different index instance", i)
		}
		if vectors[i] != vectors[0] {
			t.Fatalf("goroutine %d saw %d vectors; first saw %d", i, vectors[i], vectors[0])
		}
	}
	if vectors[0] == 0 {
		t.Error("no vectors built")
	}
}

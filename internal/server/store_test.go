package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"graphsig/internal/chem"
	"graphsig/internal/jobs"
	"graphsig/internal/store"
)

// TestStoreBackedServerMatchesInMemory is the serving-layer acceptance
// path: a server over a persistent segment store, mining through the
// scatter-gather coordinator with a tiny segment LRU, must answer
// /mine byte-identically to a server holding the same corpus in
// memory — and the auxiliary endpoints (/query, /significance) must
// work through the lazily-materialized corpus.
func TestStoreBackedServerMatchesInMemory(t *testing.T) {
	d := chem.GenerateN(chem.AIDSSpec(), 120)

	mem := httptest.NewServer(New(d.Graphs).Handler())
	t.Cleanup(mem.Close)

	dir := t.TempDir()
	if _, err := store.Build(dir, d.Graphs, store.BuildOptions{SegmentGraphs: 16}); err != nil {
		t.Fatal(err)
	}
	s, err := NewFromStore(dir, StoreOptions{Shards: 3, CachedSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Logf = t.Logf
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	req := mineRequest{Radius: 3, TimeoutMs: 120000}
	var want, got mineResponse
	if code := postJSON(t, mem.URL+"/mine", req, &want); code != http.StatusOK {
		t.Fatalf("in-memory mine: status %d", code)
	}
	if code := postJSON(t, srv.URL+"/mine", req, &got); code != http.StatusOK {
		t.Fatalf("store-backed mine: status %d", code)
	}
	if len(want.Patterns) == 0 {
		t.Fatal("in-memory mine found nothing; the comparison is vacuous")
	}
	if !reflect.DeepEqual(want.Patterns, got.Patterns) {
		t.Errorf("pattern sets differ:\n  in-memory   %+v\n  store-backed %+v", want.Patterns, got.Patterns)
	}
	if want.Truncated || got.Truncated {
		t.Errorf("truncated: in-memory %v, store-backed %v", want.Truncated, got.Truncated)
	}

	// /stats answers from the manifest without materializing segments,
	// and reports the store generation and shard width.
	var stats statsResponse
	r, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Graphs != 120 || stats.Generation != 1 || stats.Shards != 3 {
		t.Errorf("stats = %+v; want 120 graphs, generation 1, 3 shards", stats)
	}
	if stats.AvgAtoms < 15 {
		t.Errorf("avgAtoms = %f; manifest totals look wrong", stats.AvgAtoms)
	}

	// The aux read models materialize the corpus from the store.
	var q queryResponse
	if code := postJSON(t, srv.URL+"/query", smilesRequest{SMILES: "c1ccccc1"}, &q); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	if q.Support == 0 {
		t.Error("benzene query found nothing in the materialized corpus")
	}
	var sig significanceResponse
	if code := postJSON(t, srv.URL+"/significance", smilesRequest{SMILES: "c1ccccc1"}, &sig); code != http.StatusOK {
		t.Fatalf("significance: status %d", code)
	}
	if sig.Frequency < 0.4 {
		t.Errorf("benzene frequency = %f", sig.Frequency)
	}
}

// TestStoreReadFailureFailsJob: a store-backed job whose segment file
// vanished after the server opened the store must end failed with the
// read error, after being retried JobMaxRetries times — not finish
// "done" with an empty truncated result — and must never enter the
// result cache, so a resubmission mines again.
func TestStoreReadFailureFailsJob(t *testing.T) {
	d := chem.GenerateN(chem.AIDSSpec(), 40)
	dir := t.TempDir()
	man, err := store.Build(dir, d.Graphs, store.BuildOptions{SegmentGraphs: 16})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewFromStore(dir, StoreOptions{Shards: 2, CachedSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Logf = t.Logf
	const retries = 2
	s.JobMaxRetries = retries
	s.JobRetryBackoff = time.Millisecond
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Close(ctx)
	})
	lost := man.Segments[len(man.Segments)-1].File
	if err := os.Remove(filepath.Join(dir, lost)); err != nil {
		t.Fatal(err)
	}

	cfg := mineConfig(mineRequest{Radius: 3})
	for round := 0; round < 2; round++ {
		job, info, err := s.Jobs().Submit(cfg, jobs.SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if info.Cached {
			t.Fatalf("round %d: a failed mine was served from the result cache", round)
		}
		select {
		case <-job.Done():
		case <-time.After(time.Minute):
			t.Fatalf("round %d: job did not finish", round)
		}
		snap := job.Snapshot()
		if snap.State != jobs.StateFailed {
			t.Fatalf("round %d: job ended %s; want failed", round, snap.State)
		}
		if !strings.Contains(snap.Err, lost) {
			t.Errorf("round %d: job error %q does not name the missing segment %s", round, snap.Err, lost)
		}
		if snap.Result != nil {
			t.Errorf("round %d: failed job carries a result", round)
		}
		if snap.Attempt != retries {
			t.Errorf("round %d: job ended on attempt %d; want %d", round, snap.Attempt, retries)
		}
	}
	st := s.Jobs().Stats()
	if st.Executions != 2*(retries+1) || st.Retries != 2*retries {
		t.Errorf("executions %d, retries %d; want %d and %d", st.Executions, st.Retries, 2*(retries+1), 2*retries)
	}
	if st.CacheSize != 0 {
		t.Errorf("result cache holds %d entries after failed mines", st.CacheSize)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"graphsig/internal/chem"
	"graphsig/internal/runctl"
)

func TestRecoverPanicsReturns500(t *testing.T) {
	h := recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil)) // must not crash the test process
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d; want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "internal error") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestRecoverPanicsReraisesAbortHandler(t *testing.T) {
	h := recoverPanics(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Error("http.ErrAbortHandler swallowed; net/http relies on it propagating")
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	t.Error("unreachable: panic expected")
}

func TestLimitConcurrencyRejectsWhenSaturated(t *testing.T) {
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	h := limitConcurrency(1, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-release // closed after the saturation probe; later requests pass straight through
	}))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/a", nil))
	}()
	<-entered // the single slot is now held

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/b", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("saturated status = %d; want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	close(release)
	wg.Wait()

	// Slot free again: admitted.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest("GET", "/c", nil))
	if rec2.Code != http.StatusOK {
		t.Errorf("post-release status = %d; want 200", rec2.Code)
	}
}

func TestBodyCapRejectsOversizedRequest(t *testing.T) {
	d := chem.GenerateN(chem.AIDSSpec(), 10)
	s := New(d.Graphs)
	s.MaxBodyBytes = 64
	h := s.Handler()

	big := `{"maxPvalue":0.1,"padding":"` + strings.Repeat("x", 256) + `"}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/mine", bytes.NewReader([]byte(big))))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d; want 413", rec.Code)
	}

	// Small bodies still pass the cap (the mine itself may be slow, so
	// use /query which is cheap).
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest("POST", "/query", strings.NewReader(`{"smiles":"CC"}`)))
	if rec2.Code != http.StatusOK {
		t.Errorf("small body status = %d; want 200", rec2.Code)
	}
}

// TestMineCanceledByClientDisconnect exercises the acceptance criterion
// that a dropped client cancels the mine: a request whose context is
// already canceled must come back immediately with a degradation report
// naming cancellation, not run the full mine.
func TestMineCanceledByClientDisconnect(t *testing.T) {
	d := chem.GenerateN(chem.AIDSSpec(), 60)
	s := New(d.Graphs)
	// The jobs worker logs too, possibly after the handler returns.
	var mu sync.Mutex
	var logged []string
	s.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, format)
	}
	h := s.Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // the client is already gone
	req := httptest.NewRequest("POST", "/mine", strings.NewReader(`{"timeoutMs":60000}`)).WithContext(ctx)

	t0 := time.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if el := time.Since(t0); el > 2*time.Second {
		t.Errorf("canceled mine took %s; cancellation not observed promptly", el)
	}
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp mineResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Error("canceled mine not flagged truncated")
	}
	if resp.Degraded == nil {
		t.Fatal("no degradation report on canceled mine")
	}
	if resp.Degraded.Reason != runctl.ReasonCancel {
		t.Errorf("degradation reason = %q; want %q", resp.Degraded.Reason, runctl.ReasonCancel)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(logged) == 0 {
		t.Error("degraded mine not logged server-side")
	}
}

// TestMineDeadlineDegradation checks that a tiny per-request timeout
// produces a valid response with a deadline degradation report.
func TestMineDeadlineDegradation(t *testing.T) {
	srv, _ := testServer(t)
	var resp mineResponse
	code := postJSON(t, srv.URL+"/mine", mineRequest{TimeoutMs: 1}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !resp.Truncated {
		t.Fatal("1ms mine not truncated")
	}
	if resp.Degraded == nil || resp.Degraded.Reason != runctl.ReasonDeadline {
		t.Errorf("degradation = %+v; want deadline reason", resp.Degraded)
	}
}

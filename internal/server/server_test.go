package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/gindex"
)

func testServer(t *testing.T) (*httptest.Server, *chem.Dataset) {
	t.Helper()
	d := chem.GenerateN(chem.AIDSSpec(), 120)
	srv := httptest.NewServer(New(d.Graphs).Handler())
	t.Cleanup(srv.Close)
	return srv, d
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode
}

func TestHealthAndStats(t *testing.T) {
	srv, _ := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	var stats statsResponse
	r2, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Body.Close()
	if err := json.NewDecoder(r2.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Graphs != 120 || stats.AvgAtoms < 15 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestMineEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	var resp mineResponse
	code := postJSON(t, srv.URL+"/mine", mineRequest{Radius: 3, Limit: 5, TimeoutMs: 60000}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Patterns) == 0 {
		t.Fatal("no patterns mined")
	}
	if len(resp.Patterns) > 5 {
		t.Errorf("limit ignored: %d patterns", len(resp.Patterns))
	}
	for _, p := range resp.Patterns {
		if p.SMILES == "" || p.Support <= 0 || p.Edges == 0 {
			t.Errorf("bad pattern %+v", p)
		}
		if _, err := chem.ParseSMILES(p.SMILES); err != nil {
			t.Errorf("unparseable SMILES %q", p.SMILES)
		}
	}
}

func TestQueryEndpointMatchesScan(t *testing.T) {
	srv, d := testServer(t)
	var resp queryResponse
	code := postJSON(t, srv.URL+"/query", smilesRequest{SMILES: "c1ccccc1"}, &resp)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	benzene := chem.Benzene()
	want := gindex.ScanQuery(d.Graphs, benzene)
	if resp.Support != len(want) {
		t.Errorf("support = %d; scan says %d", resp.Support, len(want))
	}
	for i := range want {
		if resp.IDs[i] != want[i] {
			t.Fatalf("ids differ from scan at %d", i)
		}
	}
}

func TestSignificanceEndpoint(t *testing.T) {
	srv, _ := testServer(t)
	var benzene significanceResponse
	if code := postJSON(t, srv.URL+"/significance", smilesRequest{SMILES: "c1ccccc1"}, &benzene); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if benzene.Frequency < 0.4 {
		t.Errorf("benzene frequency = %f", benzene.Frequency)
	}
	if benzene.PValue <= 0.1 {
		t.Errorf("benzene p-value = %f; should not be significant", benzene.PValue)
	}
}

func TestBadRequests(t *testing.T) {
	srv, _ := testServer(t)
	cases := []struct {
		path string
		body string
	}{
		{"/mine", "{not json"},
		{"/query", `{"smiles":""}`},
		{"/query", `{"smiles":"C(("}`},
		{"/significance", `{}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s %q: status %d; want 400", tc.path, tc.body, resp.StatusCode)
		}
	}
	// Wrong method.
	resp, err := http.Get(srv.URL + "/mine")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("GET /mine should not succeed")
	}
}

// TestClientRoundTrip drives the HTTP API the way a client does:
// stats, a bounded mine whose patterns parse back into graphs, a query
// and a significance probe, all over raw JSON.
func TestClientRoundTrip(t *testing.T) {
	srv, d := testServer(t)

	var stats statsResponse
	if code := getJSON(t, srv.URL+"/stats", &stats); code != http.StatusOK || stats.Graphs != 120 || stats.AvgAtoms < 15 {
		t.Fatalf("stats: status %d, %+v", code, stats)
	}

	var mined mineResponse
	if code := postJSON(t, srv.URL+"/mine", mineRequest{Radius: 3, Limit: 4, TimeoutMs: 60000}, &mined); code != http.StatusOK || mined.Truncated {
		t.Fatalf("mine: status %d truncated=%v", code, mined.Truncated)
	}
	if len(mined.Patterns) == 0 || len(mined.Patterns) > 4 {
		t.Fatalf("got %d patterns", len(mined.Patterns))
	}
	for _, p := range mined.Patterns {
		g, err := chem.ParseSMILES(p.SMILES)
		if err != nil || g.NumEdges() == 0 || p.Support <= 0 {
			t.Errorf("bad pattern %+v (parse err %v)", p, err)
		}
	}

	var q queryResponse
	if code := postJSON(t, srv.URL+"/query", smilesRequest{SMILES: "c1ccccc1"}, &q); code != http.StatusOK {
		t.Fatalf("query: status %d", code)
	}
	want := gindex.ScanQuery(d.Graphs, chem.Benzene())
	if len(q.IDs) != len(want) {
		t.Errorf("query ids %d; scan %d", len(q.IDs), len(want))
	}

	var sig significanceResponse
	code := postJSON(t, srv.URL+"/significance", smilesRequest{SMILES: "c1ccccc1"}, &sig)
	if code != http.StatusOK || sig.Support != len(want) || sig.Frequency < 0.4 || sig.PValue <= 0.1 {
		t.Errorf("significance: status %d, %+v", code, sig)
	}
}

func TestClientServerError(t *testing.T) {
	srv, _ := testServer(t)
	var e struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, srv.URL+"/query", smilesRequest{SMILES: "C(("}, &e); code != http.StatusBadRequest || e.Error == "" {
		t.Errorf("bad SMILES: status %d, error %q", code, e.Error)
	}
}

package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestCounterGaugeBasics pins the scalar semantics: counters only go
// up, gauges move both ways.
func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total")
	c.Inc()
	c.Add(5)
	c.Add(-3) // dropped: counters are monotone
	c.Add(0)  // dropped
	if got := c.Value(); got != 6 {
		t.Errorf("counter = %d, want 6", got)
	}
	g := r.Gauge("test_level")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %d, want 6", got)
	}
}

// TestNilSafety locks the contract that makes wiring branch-free: a nil
// registry hands out nil metrics, and every method on them is a no-op.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "k", "v")
	g := r.Gauge("x_level")
	h := r.Histogram("x_seconds", nil)
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry handed out non-nil metrics: %v %v %v", c, g, h)
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Error("nil metrics accumulated state")
	}
	snap := r.Snapshot()
	if snap.Counters == nil || snap.Gauges == nil || snap.Histograms == nil {
		t.Error("nil registry snapshot has nil maps; want empty maps (JSON {})")
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	if b.Len() != 0 {
		t.Errorf("nil registry exposition = %q, want empty", b.String())
	}
}

// TestSeriesIdentity: label order never mints a second series, and
// re-registering under a different kind is a programming error.
func TestSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "b", "1", "a", "2")
	b := r.Counter("x_total", "a", "2", "b", "1")
	if a != b {
		t.Error("label order minted two series")
	}
	a.Inc()
	if got := r.Snapshot().CounterValue("x_total", "a", "2", "b", "1"); got != 1 {
		t.Errorf("CounterValue = %d, want 1", got)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind mismatch did not panic")
			}
		}()
		r.Gauge("x_total", "a", "2", "b", "1")
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("odd label list did not panic")
			}
		}()
		r.Counter("y_total", "only-a-key")
	}()
}

// TestLabelEscaping: quotes, backslashes, and newlines in label values
// survive a SeriesName/splitSeries round trip.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	weird := "a\"b\\c\nd"
	r.Counter("esc_total", "k", weird).Inc()
	snap := r.Snapshot()
	vals := snap.LabelValues("esc_total", "k")
	if len(vals) != 1 || vals[0] != weird {
		t.Errorf("LabelValues round trip = %q, want %q", vals, weird)
	}
	if got := snap.CounterValue("esc_total", "k", weird); got != 1 {
		t.Errorf("CounterValue with escaped label = %d, want 1", got)
	}
}

// TestWritePrometheus pins the exposition format exactly: TYPE lines
// per family, deterministic order, cumulative histogram buckets with
// _sum and _count.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("aaa_total", "stage", "rwr").Add(3)
	r.Counter("aaa_total", "stage", "fvmine").Add(1)
	r.Gauge("bbb_level").Set(7)
	h := r.Histogram("ccc_seconds", []float64{0.1, 1}, "route", "/mine")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)

	var b strings.Builder
	r.WritePrometheus(&b)
	want := `# TYPE aaa_total counter
aaa_total{stage="fvmine"} 1
aaa_total{stage="rwr"} 3
# TYPE bbb_level gauge
bbb_level 7
# TYPE ccc_seconds histogram
ccc_seconds_bucket{route="/mine",le="0.1"} 1
ccc_seconds_bucket{route="/mine",le="1"} 2
ccc_seconds_bucket{route="/mine",le="+Inf"} 3
ccc_seconds_sum{route="/mine"} 2.55
ccc_seconds_count{route="/mine"} 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestSnapshotJSONRoundTrip: the /debug/vars payload survives
// marshal/unmarshal with values intact — what the handler test scrapes
// is exactly what the registry holds.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "k", "v").Add(4)
	r.Gauge("g_level").Set(-2)
	r.Histogram("h_seconds", []float64{1}, "k", "v").Observe(0.5)

	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if got := back.CounterValue("c_total", "k", "v"); got != 4 {
		t.Errorf("counter after round trip = %d, want 4", got)
	}
	if got := back.GaugeValue("g_level"); got != -2 {
		t.Errorf("gauge after round trip = %d, want -2", got)
	}
	hs, ok := back.HistogramValue("h_seconds", "k", "v")
	if !ok || hs.Count != 1 || hs.Sum != 0.5 {
		t.Errorf("histogram after round trip = %+v ok=%v", hs, ok)
	}
}

// TestWriteStageTable: stages render in pipeline order with their
// counts, and an empty snapshot says so instead of printing a header.
func TestWriteStageTable(t *testing.T) {
	r := NewRegistry()
	for _, st := range []string{"verify", "rwr", "features"} {
		r.Counter(MStageStarted, "stage", st).Inc()
		r.Counter(MStageCompleted, "stage", st).Inc()
		r.Counter(MStageUnits, "stage", st).Add(10)
		r.Histogram(MStageDuration, DefBuckets, "stage", st).Observe(0.02)
	}
	var b strings.Builder
	WriteStageTable(&b, r.Snapshot())
	out := b.String()
	iFeat := strings.Index(out, "features")
	iRWR := strings.Index(out, "rwr")
	iVerify := strings.Index(out, "verify")
	if iFeat < 0 || iRWR < 0 || iVerify < 0 {
		t.Fatalf("missing stage rows:\n%s", out)
	}
	if !(iFeat < iRWR && iRWR < iVerify) {
		t.Errorf("stages out of pipeline order:\n%s", out)
	}
	if !strings.Contains(out, "started") || !strings.Contains(out, "p95") {
		t.Errorf("missing headers:\n%s", out)
	}

	var empty strings.Builder
	WriteStageTable(&empty, NewRegistry().Snapshot())
	if !strings.Contains(empty.String(), "no stage metrics") {
		t.Errorf("empty snapshot table = %q", empty.String())
	}
}

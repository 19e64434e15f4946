package obs

import (
	"math"
	"testing"
	"time"
)

// TestHistogramBucketing pins the bucket-placement rules: inclusive
// upper bounds, underflow into the first bucket, overflow into the
// implicit +Inf bucket.
func TestHistogramBucketing(t *testing.T) {
	bounds := []float64{1, 2, 4}
	cases := []struct {
		name   string
		value  float64
		bucket int
	}{
		{"underflow lands in first bucket", 0.5, 0},
		{"zero lands in first bucket", 0, 0},
		{"exactly on a bound is inclusive", 1, 0},
		{"between bounds", 1.5, 1},
		{"exactly on the second bound", 2, 1},
		{"top finite bucket", 3.9, 2},
		{"exactly on the last bound", 4, 2},
		{"overflow", 4.0001, 3},
		{"far overflow", 1e9, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram(bounds)
			h.Observe(tc.value)
			snap := h.Snapshot()
			if got := len(snap.Counts); got != len(bounds)+1 {
				t.Fatalf("len(Counts) = %d, want %d", got, len(bounds)+1)
			}
			for i, c := range snap.Counts {
				want := int64(0)
				if i == tc.bucket {
					want = 1
				}
				if c != want {
					t.Errorf("Observe(%v): bucket[%d] = %d, want %d", tc.value, i, c, want)
				}
			}
			if snap.Count != 1 || snap.Sum != tc.value {
				t.Errorf("Observe(%v): count=%d sum=%v", tc.value, snap.Count, snap.Sum)
			}
		})
	}
}

// TestHistogramUnsortedBounds verifies construction sorts the bounds,
// so callers may list buckets in any order.
func TestHistogramUnsortedBounds(t *testing.T) {
	h := newHistogram([]float64{4, 1, 2})
	h.Observe(1.5)
	snap := h.Snapshot()
	want := []float64{1, 2, 4}
	for i, b := range snap.Bounds {
		if b != want[i] {
			t.Fatalf("Bounds = %v, want %v", snap.Bounds, want)
		}
	}
	if snap.Counts[1] != 1 {
		t.Errorf("Observe(1.5) into unsorted bounds: counts = %v, want bucket 1", snap.Counts)
	}
}

// TestHistogramZeroObservations locks the empty-snapshot contract:
// zero count, zero sum, NaN quantiles.
func TestHistogramZeroObservations(t *testing.T) {
	h := newHistogram(nil)
	snap := h.Snapshot()
	if snap.Count != 0 || snap.Sum != 0 {
		t.Fatalf("empty snapshot: count=%d sum=%v", snap.Count, snap.Sum)
	}
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if !math.IsNaN(snap.Quantile(q)) {
			t.Errorf("Quantile(%v) of empty = %v, want NaN", q, snap.Quantile(q))
		}
	}
}

// TestHistogramQuantileErrorBound exercises the estimator's one
// guarantee: the estimate never leaves the bucket holding the true
// quantile, so its error is bounded by that bucket's width.
func TestHistogramQuantileErrorBound(t *testing.T) {
	bounds := []float64{1, 2, 3, 4, 5}
	h := newHistogram(bounds)
	// 1000 uniform observations on (0, 5): true q-quantile = 5q.
	n := 1000
	for i := 0; i < n; i++ {
		h.Observe(5 * (float64(i) + 0.5) / float64(n))
	}
	snap := h.Snapshot()
	const width = 1.0 // every bucket spans 1.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.95, 0.99} {
		truth := 5 * q
		got := snap.Quantile(q)
		if math.Abs(got-truth) > width {
			t.Errorf("Quantile(%v) = %v, want within %v of %v", q, got, width, truth)
		}
	}
}

// TestHistogramQuantileEdges covers the boundary behaviors: clamped q,
// single observation, and all-overflow populations.
func TestHistogramQuantileEdges(t *testing.T) {
	t.Run("q is clamped to [0,1]", func(t *testing.T) {
		h := newHistogram([]float64{1, 2})
		h.Observe(0.5)
		h.Observe(1.5)
		lo, hi := h.Snapshot().Quantile(-3), h.Snapshot().Quantile(42)
		if lo < 0 || lo > 1 {
			t.Errorf("Quantile(-3) = %v, want within the first bucket", lo)
		}
		if hi < 1 || hi > 2 {
			t.Errorf("Quantile(42) = %v, want within the last populated bucket", hi)
		}
	})
	t.Run("single observation", func(t *testing.T) {
		h := newHistogram([]float64{1, 2})
		h.Observe(1.5)
		got := h.Snapshot().Quantile(0.5)
		if got < 1 || got > 2 {
			t.Errorf("Quantile(0.5) = %v, want within (1, 2]", got)
		}
	})
	t.Run("all observations overflow", func(t *testing.T) {
		h := newHistogram([]float64{1, 2})
		for i := 0; i < 10; i++ {
			h.Observe(100)
		}
		// The overflow bucket has no upper bound; the estimator reports
		// the largest finite bound rather than +Inf.
		if got := h.Snapshot().Quantile(0.5); got != 2 {
			t.Errorf("Quantile(0.5) with overflow population = %v, want 2", got)
		}
	})
}

// TestHistogramDefaultBucketResolution pins the reason DefBuckets
// extends below a millisecond: with a 5ms first bucket, every sub-5ms
// stage reported the identical interpolated p50/p95 (2.5ms/4.75ms) in
// BENCH_graphsig.json even when true per-unit costs differed by >100x.
// Each case observes a constant population and requires the quantile
// estimate to land inside the bucket actually holding the value, so
// populations at different scales are distinguishable.
func TestHistogramDefaultBucketResolution(t *testing.T) {
	cases := []struct {
		name   string
		value  float64 // constant population
		q      float64
		lo, hi float64 // bucket that must hold the estimate (lo exclusive, hi inclusive)
	}{
		{"80µs stage p50", 0.00008, 0.5, 0.00005, 0.0001},
		{"80µs stage p95", 0.00008, 0.95, 0.00005, 0.0001},
		{"300µs stage p50", 0.0003, 0.5, 0.00025, 0.0005},
		{"2ms stage p50", 0.002, 0.5, 0.001, 0.0025},
		{"2ms stage p95", 0.002, 0.95, 0.001, 0.0025},
		{"30ms stage p50", 0.03, 0.5, 0.025, 0.05},
		{"700ms stage p50", 0.7, 0.5, 0.5, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram(DefBuckets)
			for i := 0; i < 100; i++ {
				h.Observe(tc.value)
			}
			got := h.Snapshot().Quantile(tc.q)
			if got <= tc.lo || got > tc.hi {
				t.Errorf("Quantile(%v) over 100×%vs = %v, want within (%v, %v]",
					tc.q, tc.value, got, tc.lo, tc.hi)
			}
		})
	}

	// The original failure mode, directly: stages at 80µs and 2ms per
	// unit must not report the same p50.
	fast, slow := newHistogram(DefBuckets), newHistogram(DefBuckets)
	for i := 0; i < 100; i++ {
		fast.Observe(0.00008)
		slow.Observe(0.002)
	}
	fp, sp := fast.Snapshot().Quantile(0.5), slow.Snapshot().Quantile(0.5)
	if sp < 5*fp {
		t.Errorf("p50 of 2ms population (%v) not clearly above p50 of 80µs population (%v)", sp, fp)
	}
}

func TestHistogramMeanAndDuration(t *testing.T) {
	h := newHistogram(DefBuckets)
	h.ObserveDuration(100 * time.Millisecond)
	h.ObserveDuration(300 * time.Millisecond)
	snap := h.Snapshot()
	if snap.Count != 2 {
		t.Fatalf("count = %d, want 2", snap.Count)
	}
	if math.Abs(snap.Sum-0.4) > 1e-9 {
		t.Errorf("sum = %v, want 0.4", snap.Sum)
	}
}

// TestHistogramNil locks the nil-receiver contract the call sites rely
// on: every method is a no-op, every read is a zero value.
func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	h.ObserveDuration(time.Second)
	snap := h.Snapshot()
	if snap.Count != 0 || len(snap.Counts) != 0 {
		t.Errorf("nil Snapshot = %+v", snap)
	}
}

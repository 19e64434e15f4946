package obs

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency buckets, in seconds. The top of
// the ladder follows the Prometheus convention (5ms to 10s, roughly
// 2-2.5x apart), which covers everything from a cache-hit HTTP request
// to a deadline-bounded mine; below that it extends down to 50µs in the
// same progression, because per-group mining stages routinely complete
// in well under a millisecond and a 5ms first bucket reported the same
// p50/p95 for stages whose per-unit costs differ by two orders of
// magnitude.
var DefBuckets = []float64{
	.00005, .0001, .00025, .0005, .001, .0025,
	.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with Prometheus semantics: a
// value v falls in the first bucket whose upper bound is >= v (bounds
// are inclusive), values above every bound land in the implicit +Inf
// overflow bucket, and values below the first bound land in the first
// bucket. Designed for non-negative observations (durations, sizes).
//
// Observe is lock-free: one atomic add on the bucket, one CAS loop on
// the float64 sum, one atomic add on the total count — in that order,
// so a concurrent Snapshot (which reads the count first) never sees a
// count larger than its bucket total. A nil *Histogram is valid: every
// method is a no-op.
type Histogram struct {
	bounds []float64      // sorted upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(bounds)+1; last is the overflow bucket
	sum    atomic.Uint64  // float64 bits, updated by CAS
	count  atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len() = overflow
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			break
		}
	}
	h.count.Add(1)
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	h.Observe(d.Seconds())
}

// Snapshot captures the histogram's state. The count is read before
// the buckets, so under concurrent Observe calls the snapshot's bucket
// total is always >= its Count — consumers padding quantile math with
// Count never index past real data.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = math.Float64frombits(h.sum.Load())
	return s
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	// Count is the total number of observations.
	Count int64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum float64 `json:"sum"`
	// Bounds are the finite bucket upper bounds (inclusive); the
	// overflow (+Inf) bucket is implicit.
	Bounds []float64 `json:"bounds"`
	// Counts are per-bucket (non-cumulative) observation counts;
	// len(Counts) == len(Bounds)+1 and the last entry is the overflow.
	Counts []int64 `json:"counts"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) by locating the
// bucket holding the q-th observation and interpolating linearly inside
// it. The estimate therefore never leaves that bucket: the error is
// bounded by the bucket's width. The overflow bucket has no upper
// bound, so quantiles landing there report the largest finite bound —
// a deliberate underestimate that keeps the value plottable. With no
// observations the result is NaN.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) { // overflow bucket
			if len(s.Bounds) == 0 {
				return math.Inf(1)
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	// Concurrent observers can make Count trail the bucket totals, never
	// lead them, so this is unreachable; return the top as a safe answer.
	if len(s.Bounds) == 0 {
		return math.Inf(1)
	}
	return s.Bounds[len(s.Bounds)-1]
}

package sigmodel

import (
	"fmt"
	"math"
	"testing"

	"graphsig/internal/feature"
	"graphsig/internal/mathx"
)

// chernoffBoundary returns the smallest k > n·p whose Chernoff bound
// -n·D(k/n ‖ p) lies below logMaxP, or n+1 when none does.
func chernoffBoundary(n int, p, logMaxP float64) int {
	bound := func(k int) float64 {
		nf, kf := float64(n), float64(k)
		d := kf * (math.Log(kf/nf) - math.Log(p))
		if k < n {
			d += (nf - kf) * (math.Log((nf-kf)/nf) - math.Log1p(-p))
		}
		return -d
	}
	lo, hi := int(math.Floor(float64(n)*p))+1, n+1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if bound(mid) < logMaxP {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// settleGrid returns the supports to check for n trials at prior p: the
// ends, ⌊n·p⌋ and ⌊n·p⌋+1 with their neighbours, and the neighbourhood
// of the Chernoff boundary for logMaxP.
func settleGrid(n int, p, logMaxP float64) []int {
	mean := int(math.Floor(float64(n) * p))
	cb := chernoffBoundary(n, p, logMaxP)
	var ks []int
	for _, c := range []int{0, 1, n - 1, n, n + 1, mean, mean + 1, cb} {
		for d := -3; d <= 3; d++ {
			ks = append(ks, c+d)
		}
	}
	return ks
}

// checkSettle compares settleTail with the direct comparison on the
// grid of n, p and maxP, and returns the first disagreement.
func checkSettle(n int, p, maxP float64) error {
	logMaxP := math.Log(maxP)
	for _, k := range settleGrid(n, p, logMaxP) {
		above, decided := settleTail(n, k, p, logMaxP)
		if !decided {
			continue
		}
		tail := mathx.LogBinomialTail(n, k, p)
		if want := tail > logMaxP; above != want {
			return fmt.Errorf("n=%d k=%d p=%g maxP=%g: settled above=%v, but log tail %v vs log maxP %v",
				n, k, p, maxP, above, tail, logMaxP)
		}
	}
	return nil
}

var (
	settleTrials = []int{1, 2, 3, 7, 50, 400, 10206, 100000}
	settlePriors = []float64{0, 1e-300, 1e-30, 1e-9, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999,
		1 - 1e-9, math.Nextafter(1, 0), 1}
	settleMaxPs = []float64{1e-300, 1e-100, 1e-10, 1e-6, 1e-3, 0.05, 0.1, 0.3, 0.49,
		0.5 - 1e-7, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.9, 1}
)

// TestSettleMatchesTail checks every settled decision against the
// binomial tail itself.
func TestSettleMatchesTail(t *testing.T) {
	for _, n := range settleTrials {
		for _, p := range settlePriors {
			for _, maxP := range settleMaxPs {
				if err := checkSettle(n, p, maxP); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// TestSettleDecides pins which bound settles which side: left of the
// mean only below ½, Chernoff far right, the first term near the mean.
func TestSettleDecides(t *testing.T) {
	cases := []struct {
		n, k          int
		p, maxP       float64
		above, decide bool
	}{
		{1000, 100, 0.1, 0.1, true, true},      // k = n·p: tail ≥ ½
		{1000, 100, 0.1, 0.5, true, false},     // ½ guard: left open
		{1000, 200, 0.1, 0.1, false, true},     // Chernoff
		{1000, 101, 0.1, 1e-6, true, true},     // pmf(k) alone exceeds 1e-6
		{1000, 1000, 0.5, 1e-300, false, true}, // k = n: p^n
	}
	for _, c := range cases {
		above, decided := settleTail(c.n, c.k, c.p, math.Log(c.maxP))
		if decided != c.decide || (decided && above != c.above) {
			t.Errorf("settleTail(%d, %d, %g, log %g) = %v, %v; want %v, %v",
				c.n, c.k, c.p, c.maxP, above, decided, c.above, c.decide)
		}
	}
}

// TestSettleModelEdges covers the cases Settle answers before the
// binomial: support 0 (p-value 1) and a vector impossible under the
// priors (p-value 0, a -Inf log prior).
func TestSettleModelEdges(t *testing.T) {
	m := New(tableI())
	for _, c := range []struct {
		x       feature.Vector
		support int
	}{
		{feature.Vector{1, 0, 0, 0}, 0},
		{feature.Vector{5, 0, 0, 0}, 1},
		{feature.Vector{5, 0, 0, 0}, 3},
		{feature.Vector{1, 1, 0, 2}, 2},
	} {
		for _, maxP := range settleMaxPs {
			logMaxP := math.Log(maxP)
			above, decided := m.Settle(c.x, c.support, logMaxP)
			want := m.LogPValue(c.x, c.support) > logMaxP
			if decided && above != want {
				t.Errorf("Settle(%v, %d, log %g) = %v; LogPValue says %v", c.x, c.support, maxP, above, want)
			}
		}
	}
}

// FuzzSignificanceBounds checks settleTail against the direct
// comparison on the grid around ⌊n·p⌋, ⌊n·p⌋+1 and the Chernoff
// boundary, for fuzzed trials, prior and threshold. The prior is folded
// into [0, 1] and the threshold into [1e-300, 1].
func FuzzSignificanceBounds(f *testing.F) {
	for _, n := range settleTrials {
		for _, p := range []float64{0, 1e-9, 0.1, 0.5, 1 - 1e-9, 1} {
			f.Add(uint32(n), p, 0.1)
			f.Add(uint32(n), p, 0.49)
			f.Add(uint32(n), p, 1e-300)
		}
	}
	f.Fuzz(func(t *testing.T, n32 uint32, p, maxP float64) {
		n := int(n32%200000) + 1
		if math.IsNaN(p) || math.IsInf(p, 0) || math.IsNaN(maxP) || math.IsInf(maxP, 0) {
			t.Skip()
		}
		p = math.Min(math.Abs(p), 1)
		maxP = math.Max(math.Min(math.Abs(maxP), 1), 1e-300)
		if err := checkSettle(n, p, maxP); err != nil {
			t.Fatal(err)
		}
	})
}

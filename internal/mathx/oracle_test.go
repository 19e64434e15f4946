package mathx

import "math"

// Test oracles: direct evaluations the production routines are checked
// against.

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p).
func BinomialPMF(n, k int, p float64) float64 {
	return math.Exp(LogBinomialPMF(n, k, p))
}

// BinomialTailDirect sums the PMF from k to n in O(n-k): the cross-check
// oracle for BinomialTail.
func BinomialTailDirect(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	sum := 0.0
	for i := k; i <= n; i++ {
		sum += BinomialPMF(n, i, p)
	}
	if sum > 1 {
		return 1
	}
	return sum
}

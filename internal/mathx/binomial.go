package mathx

import "math"

// BinomialTail returns P(X >= k) for X ~ Binomial(n, p) — the upper tail
// used as the p-value of an observed support k out of n trials (Eqn 6 of
// the paper). It reduces to the regularized incomplete beta function:
//
//	P(X >= k) = I_p(k, n-k+1)
//
// Edge cases: k <= 0 returns 1 (some support is certain), k > n returns 0.
func BinomialTail(n, k int, p float64) float64 {
	switch {
	case k <= 0:
		return 1
	case k > n:
		return 0
	case p <= 0:
		return 0
	case p >= 1:
		return 1
	}
	return RegularizedBeta(p, float64(k), float64(n-k+1))
}

// LogBinomialTail returns log P(X >= k) for X ~ Binomial(n, p), remaining
// finite, accurate and ordered even when the tail underflows float64.
//
// For k in the lower half of the distribution the tail is large and the
// linear BinomialTail is accurate, so its log is returned. For k above
// the mean (where the complement-side beta evaluation would cancel
// catastrophically) the tail is summed directly in log space: the PMF
// terms decrease monotonically there, so the sum is truncated once terms
// stop contributing at float64 precision.
func LogBinomialTail(n, k int, p float64) float64 {
	switch {
	case k <= 0:
		return 0
	case k > n:
		return math.Inf(-1)
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return 0
	}
	if float64(k) <= float64(n)*p {
		// Tail >= ~1/2: the linear evaluation has no cancellation risk
		// at this magnitude.
		return math.Log(BinomialTail(n, k, p))
	}
	// Right of the mean: log-sum-exp over the (decreasing) PMF terms.
	logMax := LogBinomialPMF(n, k, p)
	if math.IsInf(logMax, -1) {
		return logMax
	}
	sum := 1.0 // term k itself, scaled by exp(logMax)
	logTerm := logMax
	lp, lq := math.Log(p), math.Log1p(-p)
	for i := k + 1; i <= n; i++ {
		// pmf(i)/pmf(i-1) = (n-i+1)/i * p/(1-p)
		logTerm += math.Log(float64(n-i+1)/float64(i)) + lp - lq
		rel := logTerm - logMax
		if rel < -45 { // below float64 resolution of the running sum
			break
		}
		sum += math.Exp(rel)
	}
	return logMax + math.Log(sum)
}

// LogBinomialPMF returns log P(X = k) for X ~ Binomial(n, p).
func LogBinomialPMF(n, k int, p float64) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	if p <= 0 {
		if k == 0 {
			return 0
		}
		return math.Inf(-1)
	}
	if p >= 1 {
		if k == n {
			return 0
		}
		return math.Inf(-1)
	}
	return LogChoose(n, k) + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p)
}

// LogChoose returns log C(n, k) via lgamma.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	ln1, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return ln1 - lk - lnk
}

// NormalCDF returns Phi(x), the standard normal CDF, via erf from the
// standard library. The paper notes the normal approximation to the
// binomial when n·p and n·(1-p) are both large; BinomialTailNormal uses it.
func NormalCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// BinomialTailNormal approximates P(X >= k) for X ~ Binomial(n, p) with a
// continuity-corrected normal approximation. Accurate when n·p and
// n·(1-p) are both large (≥ ~10).
func BinomialTailNormal(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	mean := float64(n) * p
	sd := math.Sqrt(float64(n) * p * (1 - p))
	if sd == 0 {
		if float64(k) <= mean {
			return 1
		}
		return 0
	}
	z := (float64(k) - 0.5 - mean) / sd
	return 1 - NormalCDF(z)
}

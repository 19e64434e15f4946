// Package sigmodel implements the statistical significance model of §III:
// empirical per-feature prior probabilities, the probability of a
// sub-feature vector occurring in a random vector (Eqn 3-4, assuming
// feature independence), and the binomial-tail p-value of a vector given
// its observed support (Eqn 5-6). P-values are exposed in log space so
// that extremely significant patterns (p far below float64's smallest
// positive value) remain comparable.
package sigmodel

import (
	"math"

	"graphsig/internal/feature"
	"graphsig/internal/mathx"
)

// Model holds the empirical priors of a feature-vector database.
type Model struct {
	// tail[i][v] = P(y_i >= v) estimated over the database, for
	// v in [0, maxBin+1]. tail[i][0] == 1 by construction.
	tail [][]float64
	// logTail[i][v] = math.Log(tail[i][v]), -Inf where the prior is 0.
	logTail [][]float64
	// trials is the database size m: the number of random-vector trials
	// in the binomial support model.
	trials int
}

// New builds the empirical prior model from a vector database, exactly as
// in the paper's Table I example: P(y_i >= v) is the fraction of database
// vectors whose i-th feature is at least v.
func New(vectors []feature.Vector) *Model {
	if len(vectors) == 0 {
		return &Model{trials: 0}
	}
	dim := len(vectors[0])
	maxBin := 0
	for _, v := range vectors {
		for _, x := range v {
			if int(x) > maxBin {
				maxBin = int(x)
			}
		}
	}
	counts := make([][]int, dim)
	for i := range counts {
		counts[i] = make([]int, maxBin+2)
	}
	for _, v := range vectors {
		if len(v) != dim {
			panic("sigmodel: inconsistent vector dimensions")
		}
		for i, x := range v {
			counts[i][x]++
		}
	}
	m := &Model{trials: len(vectors), tail: make([][]float64, dim), logTail: make([][]float64, dim)}
	for i := range counts {
		tail := make([]float64, maxBin+2)
		logTail := make([]float64, maxBin+2)
		cum := 0
		for v := maxBin + 1; v >= 0; v-- {
			if v <= maxBin {
				cum += counts[i][v]
			}
			tail[v] = float64(cum) / float64(len(vectors))
			logTail[v] = math.Log(tail[v])
		}
		m.tail[i], m.logTail[i] = tail, logTail
	}
	return m
}

// Prob returns P(x): the probability that x is a sub-vector of a random
// feature vector, as the product of per-feature priors (Eqn 4).
func (m *Model) Prob(x feature.Vector) float64 {
	return math.Exp(m.LogProb(x))
}

// LogProb returns log P(x). It is -Inf when some feature of x exceeds
// every observed value. It sums the precomputed log priors
// log P(y_i >= x_i) in feature order.
func (m *Model) LogProb(x feature.Vector) float64 {
	if len(x) != len(m.logTail) {
		panic("sigmodel: vector dimension mismatch")
	}
	sum := 0.0
	for i, v := range x {
		lt := m.logTail[i]
		if int(v) >= len(lt) || math.IsInf(lt[v], -1) {
			return math.Inf(-1)
		}
		sum += lt[v]
	}
	return sum
}

// LogPValue returns the log p-value of x at observed support: the log
// probability that x occurs in a random database of m vectors with
// support >= the observed support (Eqn 6). It is stable in deep
// underflow.
func (m *Model) LogPValue(x feature.Vector, support int) float64 {
	if support <= 0 {
		return 0
	}
	p := m.Prob(x)
	if p <= 0 {
		// x is impossible under the priors, but was observed: maximal
		// significance.
		return math.Inf(-1)
	}
	return mathx.LogBinomialTail(m.trials, support, p)
}

// Settle decides LogPValue(x, support) > logMaxP from bounds alone,
// without evaluating the binomial tail. It returns decided false when
// no bound settles the comparison; the caller then evaluates LogPValue.
// A decided answer always equals the direct comparison: every bound
// keeps a slack wider than the rounding of LogBinomialTail.
func (m *Model) Settle(x feature.Vector, support int, logMaxP float64) (above, decided bool) {
	if support <= 0 {
		return 0 > logMaxP, true
	}
	return settleTail(m.trials, support, m.Prob(x), logMaxP)
}

// halfSlack is how far below log ½ logMaxP must lie before a tail left
// of the mean is taken to exceed it without evaluation. The tail there
// is at least ½; the slack absorbs the continued fraction's rounding.
const halfSlack = 1e-6

// settleTail decides LogBinomialTail(n, k, p) > logMaxP, if a bound
// settles it, following that function's case split:
//
//   - k <= n·p: the tail is at least ½ (a binomial's median is at least
//     ⌊n·p⌋), so it exceeds any maxP below ½.
//   - k > n·p, Chernoff: the tail is at most exp(-n·D(k/n ‖ p)), so a
//     bound below logMaxP, by a slack scaled to the magnitudes the tail
//     is summed from, shows the tail below it too.
//   - k > n·p, first term: LogBinomialTail adds terms to log pmf(k) and
//     never subtracts, so a log pmf(k) above logMaxP shows the tail
//     above it exactly.
func settleTail(n, k int, p, logMaxP float64) (above, decided bool) {
	switch {
	case k <= 0, p >= 1 && k <= n:
		return 0 > logMaxP, true
	case k > n, p <= 0:
		return math.Inf(-1) > logMaxP, true
	}
	if float64(k) <= float64(n)*p {
		return true, logMaxP < -math.Ln2-halfSlack
	}
	nf, kf := float64(n), float64(k)
	lp, lq := math.Log(p), math.Log1p(-p)
	// n·D(k/n ‖ p) = k·log(k/(n·p)) + (n-k)·log((n-k)/(n·(1-p))).
	div := kf * (math.Log(kf/nf) - lp)
	if k < n {
		div += (nf - kf) * (math.Log((nf-kf)/nf) - lq)
	}
	scale := nf * (1 + math.Log(nf) - lp - lq)
	if -div < logMaxP-(1e-6+1e-12*scale) {
		return false, true
	}
	if mathx.LogBinomialPMF(n, k, p) > logMaxP {
		return true, true
	}
	return false, false
}

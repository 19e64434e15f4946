// Package sigmodel implements the statistical significance model of §III:
// empirical per-feature prior probabilities, the probability of a
// sub-feature vector occurring in a random vector (Eqn 3-4, assuming
// feature independence), and the binomial-tail p-value of a vector given
// its observed support (Eqn 5-6). All p-values are also exposed in log
// space so that extremely significant patterns (p far below float64's
// smallest positive value) remain comparable.
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

// Trials returns the number of random-vector trials m (the database size
// the model was built from).
func (m *Model) Trials() int { return m.trials }

// Dim returns the feature dimensionality.
func (m *Model) Dim() int { return len(m.tail) }

// FeaturePrior returns P(y_i >= v) for feature i.
func (m *Model) FeaturePrior(i int, v int) float64 {
	if v <= 0 {
		return 1
	}
	t := m.tail[i]
	if v >= len(t) {
		return 0
	}
	return t[v]
}

// Prob returns P(x): the probability that x is a sub-vector of a random
// feature vector, as the product of per-feature priors (Eqn 4).
func (m *Model) Prob(x feature.Vector) float64 {
	return math.Exp(m.LogProb(x))
}

// LogProb returns log P(x). It is -Inf when some feature of x exceeds
// every observed value. It sums the precomputed log priors in feature
// order, so it equals Σ math.Log(FeaturePrior(i, x_i)) bit for bit.
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

// PValue returns the p-value of x at observed support: the probability
// that x occurs in a random database of m vectors with support >= the
// observed support (Eqn 6). Clamped to [0, 1].
func (m *Model) PValue(x feature.Vector, support int) float64 {
	return math.Exp(m.LogPValue(x, support))
}

// LogPValue returns log PValue(x, support), stable in deep underflow.
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

// PValueNormal approximates the p-value with a continuity-corrected
// normal distribution, as the paper notes is valid "when both m·P(x) and
// m·(1-P(x)) are large". It exists for callers that trade accuracy for a
// constant-time evaluation; NormalApproxOK reports whether the
// approximation is trustworthy for x.
func (m *Model) PValueNormal(x feature.Vector, support int) float64 {
	if support <= 0 {
		return 1
	}
	p := m.Prob(x)
	if p <= 0 {
		return 0
	}
	return mathx.BinomialTailNormal(m.trials, support, p)
}

// NormalApproxOK reports whether the normal approximation is reasonable
// for x under the usual rule of thumb m·P(x) >= 10 and m·(1-P(x)) >= 10.
func (m *Model) NormalApproxOK(x feature.Vector) bool {
	p := m.Prob(x)
	mp := float64(m.trials) * p
	return mp >= 10 && float64(m.trials)-mp >= 10
}

package sigmodel

import (
	"math"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/feature"
	"graphsig/internal/mathx"
	"graphsig/internal/rwr"
)

// directPriors counts each prior P(y_i >= v) straight from the
// database, memoized per (i, v).
type directPriors struct {
	db   []feature.Vector
	memo map[[2]int]float64
}

func (d *directPriors) prior(i int, v uint8) float64 {
	k := [2]int{i, int(v)}
	if p, ok := d.memo[k]; ok {
		return p
	}
	count := 0
	for _, y := range d.db {
		if y[i] >= v {
			count++
		}
	}
	p := float64(count) / float64(len(d.db))
	d.memo[k] = p
	return p
}

// oracleLogPValue evaluates LogPValue the direct way, with none of the
// model's precomputation: Σ math.Log(prior) in feature order over the
// directly counted priors, exp, then the binomial tail with log(p) and
// log1p(-p) recomputed for every term.
func oracleLogPValue(d *directPriors, x feature.Vector, support int) float64 {
	if support <= 0 {
		return 0
	}
	logProb := 0.0
	for i, v := range x {
		p := d.prior(i, v)
		if p == 0 {
			logProb = math.Inf(-1)
			break
		}
		logProb += math.Log(p)
	}
	p := math.Exp(logProb)
	if p <= 0 {
		return math.Inf(-1)
	}
	return oracleLogBinomialTail(len(d.db), support, p)
}

// oracleLogBinomialTail is mathx.LogBinomialTail with the per-term
// logarithms left in the loop.
func oracleLogBinomialTail(n, k int, p float64) float64 {
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
		return math.Log(mathx.BinomialTail(n, k, p))
	}
	logMax := mathx.LogBinomialPMF(n, k, p)
	if math.IsInf(logMax, -1) {
		return logMax
	}
	sum := 1.0
	logTerm := logMax
	for i := k + 1; i <= n; i++ {
		logTerm += math.Log(float64(n-i+1)/float64(i)) + math.Log(p) - math.Log1p(-p)
		rel := logTerm - logMax
		if rel < -45 {
			break
		}
		sum += math.Exp(rel)
	}
	return logMax + math.Log(sum)
}

// TestLogPValueBitsMatchOracle: LogPValue over the precomputed log-prior
// table and the hoisted tail loop equals the direct evaluation bit for
// bit, on every vector of a corpus, on vectors with a prior of zero, and
// at supports up to and past the number of trials.
func TestLogPValueBitsMatchOracle(t *testing.T) {
	db := chem.GenerateN(chem.CancerSpecs()[1], 120).Graphs
	fs := feature.ChemistrySet(db, chem.Alphabet(), 5)
	var vectors []feature.Vector
	for _, nv := range rwr.DatabaseVectors(db, fs, rwr.Defaults()) {
		vectors = append(vectors, nv.Vec)
	}
	m := New(vectors)
	direct := &directPriors{db: vectors, memo: map[[2]int]float64{}}
	trials := len(vectors)
	supports := []int{-1, 0, 1, 2, 3, 5, 10, 50, trials / 10, trials / 2, trials - 1, trials, trials + 1}

	// Every corpus vector, plus each one raised past the observed maximum
	// of one feature (a -Inf prior) and raised by one bin everywhere.
	probes := append([]feature.Vector(nil), vectors...)
	for i, v := range vectors {
		beyond := v.Clone()
		beyond[i%len(v)] = 255
		up := v.Clone()
		for j := range up {
			up[j]++
		}
		probes = append(probes, beyond, up)
	}
	infs := 0
	for _, x := range probes {
		for _, s := range supports {
			got, want := m.LogPValue(x, s), oracleLogPValue(direct, x, s)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("LogPValue(%v, %d) = %v (%016x); oracle %v (%016x)",
					x, s, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if math.IsInf(got, -1) {
				infs++
			}
		}
	}
	if infs == 0 {
		t.Error("no probe reached a -Inf p-value")
	}
}

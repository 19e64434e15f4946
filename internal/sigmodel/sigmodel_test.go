package sigmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphsig/internal/feature"
)

// tableI is the sample feature vector database of Table I in the paper.
func tableI() []feature.Vector {
	return []feature.Vector{
		{1, 0, 0, 2}, // v1
		{1, 1, 0, 2}, // v2
		{2, 0, 1, 2}, // v3
		{1, 0, 1, 0}, // v4
	}
}

func TestPriorsMatchPaperTableI(t *testing.T) {
	m := New(tableI())
	// A vector with one non-zero feature has the probability of that
	// feature's prior. Paper: P(a-b >= 2) = 1/4, P(b-b >= 1) = 2/4.
	priors := []struct {
		x    feature.Vector
		want float64
	}{
		{feature.Vector{2, 0, 0, 0}, 0.25},
		{feature.Vector{0, 0, 1, 0}, 0.5},
		// Any feature at threshold 0 has prior 1.
		{feature.Vector{0, 0, 0, 0}, 1},
		// Beyond observed maxima the prior is 0.
		{feature.Vector{3, 0, 0, 0}, 0},
	}
	for _, c := range priors {
		if got := m.Prob(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("P(%v) = %f; want %f", c.x, got, c.want)
		}
	}
}

func TestProbMatchesPaperExample(t *testing.T) {
	// Paper §III-A: P(v2) = P(y1>=1)·P(y2>=1)·P(y3>=0)·P(y4>=2)
	//             = 1 · 1/4 · 1 · 3/4 = 3/16.
	m := New(tableI())
	got := m.Prob(feature.Vector{1, 1, 0, 2})
	if math.Abs(got-3.0/16.0) > 1e-12 {
		t.Errorf("P(v2) = %f; want 3/16", got)
	}
}

func TestPValueBounds(t *testing.T) {
	m := New(tableI())
	x := feature.Vector{1, 0, 0, 0}
	if got := m.LogPValue(x, 0); got != 0 {
		t.Errorf("LogPValue at support 0 = %f; want 0 (p = 1)", got)
	}
	if lp := m.LogPValue(x, 4); lp > 0 || math.IsNaN(lp) {
		t.Errorf("LogPValue out of range: %f", lp)
	}
}

func TestPValueImpossibleVector(t *testing.T) {
	m := New(tableI())
	// Feature 0 never reaches 5 in the database.
	x := feature.Vector{5, 0, 0, 0}
	if !math.IsInf(m.LogPValue(x, 1), -1) {
		t.Error("LogPValue of impossible vector not -Inf")
	}
}

func randVectors(r *rand.Rand, count, dim, maxBin int) []feature.Vector {
	vs := make([]feature.Vector, count)
	for i := range vs {
		v := make(feature.Vector, dim)
		for j := range v {
			v[j] = uint8(r.Intn(maxBin + 1))
		}
		vs[i] = v
	}
	return vs
}

// Paper monotonicity property 1: x ⊆ y implies
// p-value(x, mu) >= p-value(y, mu).
func TestPropertyMonotoneInVector(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		db := randVectors(rr, 5+rr.Intn(30), 1+rr.Intn(5), 4)
		m := New(db)
		y := db[rr.Intn(len(db))]
		// Build a random sub-vector x of y.
		x := y.Clone()
		for i := range x {
			if x[i] > 0 {
				x[i] -= uint8(rr.Intn(int(x[i]) + 1))
			}
		}
		mu := 1 + rr.Intn(len(db))
		return m.LogPValue(x, mu) >= m.LogPValue(y, mu)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Error(err)
	}
}

// Paper monotonicity property 2: mu1 >= mu2 implies
// p-value(x, mu1) <= p-value(x, mu2).
func TestPropertyMonotoneInSupport(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		db := randVectors(rr, 5+rr.Intn(30), 1+rr.Intn(5), 4)
		m := New(db)
		x := db[rr.Intn(len(db))]
		mu1 := 1 + rr.Intn(len(db))
		mu2 := 1 + rr.Intn(len(db))
		if mu1 < mu2 {
			mu1, mu2 = mu2, mu1
		}
		return m.LogPValue(x, mu1) <= m.LogPValue(x, mu2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestZeroVectorPValueIsHigh(t *testing.T) {
	db := randVectors(rand.New(rand.NewSource(73)), 50, 4, 3)
	m := New(db)
	zero := make(feature.Vector, 4)
	// The zero vector occurs in every random vector (P=1), so observing
	// it in all m vectors is exactly expected: p-value 1.
	if got := m.LogPValue(zero, len(db)); got != 0 {
		t.Errorf("LogPValue(zero, m) = %f; want 0 (p = 1)", got)
	}
}

func TestEmptyModel(t *testing.T) {
	// No vectors: zero dimensions, so only the empty vector fits, with
	// the empty product as its probability.
	m := New(nil)
	if got := m.LogProb(feature.Vector{}); got != 0 {
		t.Errorf("empty model: LogProb(empty) = %f; want 0", got)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	m := New(tableI())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.LogProb(feature.Vector{1, 2})
}

func TestRareVectorMoreSignificant(t *testing.T) {
	// Database where feature 0 is almost always 0 and feature 1 is
	// almost always high. A vector demanding the rare feature must be
	// more significant at equal support.
	var db []feature.Vector
	for i := 0; i < 100; i++ {
		v := feature.Vector{0, 3}
		if i < 2 {
			v = feature.Vector{3, 3}
		}
		db = append(db, v)
	}
	m := New(db)
	rare := feature.Vector{3, 0}
	common := feature.Vector{0, 3}
	if !(m.LogPValue(rare, 2) < m.LogPValue(common, 2)) {
		t.Errorf("rare %v not more significant than common %v",
			m.LogPValue(rare, 2), m.LogPValue(common, 2))
	}
}

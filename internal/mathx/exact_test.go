package mathx

import (
	"math"
	"math/big"
	"testing"
)

// exactLogTails returns log P(X >= k) for X ~ Binomial(n, p) and every k
// in 0..n+1, from exact integer arithmetic. A float64 p is a dyadic
// rational a/2^e, so with b = 2^e - a every tail is
//
//	Σ_{i>=k} C(n,i)·a^i·b^(n-i) / 2^(e·n)
//
// with an integer numerator; only the final logarithm rounds.
func exactLogTails(n int, p float64) []float64 {
	// p = frac·2^exp with frac in [0.5, 1) holding 53 significant bits.
	frac, exp := math.Frexp(p)
	a := new(big.Int).SetUint64(uint64(frac * (1 << 53)))
	e := 53 - exp
	b := new(big.Int).Lsh(big.NewInt(1), uint(e))
	b.Sub(b, a)

	powA := make([]*big.Int, n+1)
	powB := make([]*big.Int, n+1)
	powA[0], powB[0] = big.NewInt(1), big.NewInt(1)
	for i := 1; i <= n; i++ {
		powA[i] = new(big.Int).Mul(powA[i-1], a)
		powB[i] = new(big.Int).Mul(powB[i-1], b)
	}
	out := make([]float64, n+2)
	out[n+1] = math.Inf(-1)
	sum := new(big.Int)
	choose := big.NewInt(1) // C(n, n)
	for k := n; k >= 0; k-- {
		term := new(big.Int).Mul(choose, powA[k])
		term.Mul(term, powB[n-k])
		sum.Add(sum, term)
		out[k] = bigLog(sum) - float64(e*n)*math.Ln2
		// C(n, k-1) = C(n, k)·k/(n-k+1)
		choose.Mul(choose, big.NewInt(int64(k)))
		choose.Quo(choose, big.NewInt(int64(n-k+1)))
	}
	return out
}

// bigLog returns the natural log of a positive integer of any size.
func bigLog(x *big.Int) float64 {
	mant := new(big.Float)
	exp := new(big.Float).SetInt(x).MantExp(mant)
	m, _ := mant.Float64()
	return math.Log(m) + float64(exp)*math.Ln2
}

// TestLogBinomialTailMatchesExact checks LogBinomialTail against exact
// tails over a grid of n <= 300, every k and five p, including tails far
// below float64's smallest positive value. The comparison is in log
// space: |got - exact| <= 1e-10·max(1, |exact|).
func TestLogBinomialTailMatchesExact(t *testing.T) {
	const rel = 1e-10
	var ns []int
	for n := 1; n <= 20; n++ {
		ns = append(ns, n)
	}
	for n := 30; n <= 300; n += 30 {
		ns = append(ns, n)
	}
	underflow := math.Log(math.SmallestNonzeroFloat64)
	below, worst := 0, 0.0
	for _, p := range []float64{1e-6, 0.01, 0.3, 0.5, 0.9} {
		for _, n := range ns {
			exact := exactLogTails(n, p)
			for k := 0; k <= n+1; k++ {
				got, want := LogBinomialTail(n, k, p), exact[k]
				if math.IsInf(want, -1) {
					if !math.IsInf(got, -1) {
						t.Errorf("n=%d k=%d p=%g: got %v; want -Inf", n, k, p, got)
					}
					continue
				}
				if want < underflow {
					below++
				}
				err := math.Abs(got-want) / math.Max(1, math.Abs(want))
				worst = math.Max(worst, err)
				if !(err <= rel) {
					t.Errorf("n=%d k=%d p=%g: log tail %.17g; exact %.17g (relative error %.3g)", n, k, p, got, want, err)
				}
			}
		}
	}
	if below == 0 {
		t.Error("no tail below float64's smallest positive value was checked")
	}
	t.Logf("%d tails below float64 range; worst relative error in log space %.3g", below, worst)
}

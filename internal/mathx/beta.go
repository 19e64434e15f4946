// Package mathx provides the special functions underlying GraphSig's
// statistical model: the regularized incomplete beta function and
// binomial tail probabilities (exact and in log space). Everything is
// implemented on top of math.Lgamma so that p-values far below the
// smallest positive float64 remain comparable in log space.
package mathx

import (
	"math"
)

// Epsilon is the relative accuracy target for the continued-fraction
// evaluation of the incomplete beta function.
const Epsilon = 3e-14

// maxIterations bounds the Lentz continued-fraction loop. The fraction
// converges in a few dozen iterations for all well-conditioned inputs;
// the bound only guards pathological arguments.
const maxIterations = 500

// LogBeta returns log(B(a, b)) = lgamma(a) + lgamma(b) - lgamma(a+b).
func LogBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// RegularizedBeta computes the regularized incomplete beta function
// I_x(a, b) for x in [0, 1] and a, b > 0. It is the CDF of the Beta(a, b)
// distribution at x, and the binomial tail reduces to it (see BinomialTail).
//
// The implementation follows the classic approach: evaluate the continued
// fraction on whichever side of the symmetry point converges fast, using
// I_x(a,b) = 1 - I_{1-x}(b,a).
func RegularizedBeta(x, a, b float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsNaN(a) || math.IsNaN(b):
		return math.NaN()
	case a <= 0 || b <= 0:
		return math.NaN()
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	// Prefactor x^a (1-x)^b / (a B(a,b)) in log space.
	logPre := a*math.Log(x) + b*math.Log1p(-x) - math.Log(a) - LogBeta(a, b)
	if x < (a+1)/(a+b+2) {
		return math.Exp(logPre) * betaContinuedFraction(x, a, b)
	}
	// Symmetric evaluation for the fast-converging regime.
	logPreSym := b*math.Log1p(-x) + a*math.Log(x) - math.Log(b) - LogBeta(b, a)
	return 1 - math.Exp(logPreSym)*betaContinuedFraction(1-x, b, a)
}

// betaContinuedFraction evaluates the continued fraction for the
// incomplete beta function by the modified Lentz method.
func betaContinuedFraction(x, a, b float64) float64 {
	const tiny = 1e-300
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIterations; m++ {
		fm := float64(m)
		m2 := 2 * fm
		// Even step.
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		// Odd step.
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < Epsilon {
			return h
		}
	}
	return h
}

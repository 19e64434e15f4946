package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	if diff < tol {
		return true
	}
	return diff/math.Max(math.Abs(a), math.Abs(b)) < tol
}

func TestRegularizedBetaKnownValues(t *testing.T) {
	tests := []struct {
		x, a, b float64
		want    float64
	}{
		{0.5, 1, 1, 0.5},           // uniform CDF
		{0.25, 1, 1, 0.25},         // uniform CDF
		{0.5, 2, 2, 0.5},           // symmetric beta
		{0.5, 5, 5, 0.5},           // symmetric beta
		{0.1, 1, 2, 0.19},          // 1-(1-x)^2
		{0.3, 2, 1, 0.09},          // x^2
		{0.9, 3, 1, 0.729},         // x^3
		{0.2, 1, 3, 1 - 0.512},     // 1-(1-x)^3
		{0, 2, 3, 0},               // boundary
		{1, 2, 3, 1},               // boundary
		{0.7, 10, 3, 0.2528153479}, // equals P(X>=10), X~Bin(12,0.7), by direct sum
	}
	for _, tc := range tests {
		got := RegularizedBeta(tc.x, tc.a, tc.b)
		if !almostEqual(got, tc.want, 1e-7) {
			t.Errorf("I_%g(%g,%g) = %.10f; want %.10f", tc.x, tc.a, tc.b, got, tc.want)
		}
	}
}

func TestRegularizedBetaInvalidArgs(t *testing.T) {
	for _, args := range [][3]float64{{0.5, -1, 2}, {0.5, 1, 0}, {math.NaN(), 1, 1}} {
		if got := RegularizedBeta(args[0], args[1], args[2]); !math.IsNaN(got) {
			t.Errorf("RegularizedBeta(%v) = %v; want NaN", args, got)
		}
	}
}

func TestRegularizedBetaSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		x := rr.Float64()
		a := 0.5 + 20*rr.Float64()
		b := 0.5 + 20*rr.Float64()
		lhs := RegularizedBeta(x, a, b)
		rhs := 1 - RegularizedBeta(1-x, b, a)
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestRegularizedBetaMonotoneInX(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := 0.5 + 10*rr.Float64()
		b := 0.5 + 10*rr.Float64()
		x1 := rr.Float64()
		x2 := rr.Float64()
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return RegularizedBeta(x1, a, b) <= RegularizedBeta(x2, a, b)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestBinomialTailMatchesDirectSum(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(200)
		k := rr.Intn(n + 2)
		p := rr.Float64()
		fast := BinomialTail(n, k, p)
		slow := BinomialTailDirect(n, k, p)
		return almostEqual(fast, slow, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestBinomialTailEdgeCases(t *testing.T) {
	tests := []struct {
		n, k int
		p    float64
		want float64
	}{
		{10, 0, 0.5, 1},
		{10, -3, 0.5, 1},
		{10, 11, 0.5, 0},
		{10, 5, 0, 0},
		{10, 5, 1, 1},
		{1, 1, 0.25, 0.25},
		{2, 2, 0.5, 0.25},
		{2, 1, 0.5, 0.75},
	}
	for _, tc := range tests {
		if got := BinomialTail(tc.n, tc.k, tc.p); !almostEqual(got, tc.want, 1e-12) {
			t.Errorf("BinomialTail(%d,%d,%g) = %g; want %g", tc.n, tc.k, tc.p, got, tc.want)
		}
	}
}

func TestLogBinomialTailConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 1 + rr.Intn(500)
		k := rr.Intn(n + 1)
		p := rr.Float64()
		lin := BinomialTail(n, k, p)
		lg := LogBinomialTail(n, k, p)
		if lin < 1e-290 {
			// The linear value is (sub)normal garbage down here; only
			// demand the log stays deeply negative.
			return lg < -600
		}
		return almostEqual(math.Log(lin), lg, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestLogBinomialTailExtremeUnderflow(t *testing.T) {
	// 5000 successes out of 5000 trials at p=0.01: tail is 1e-10000-ish,
	// far below float64. Log space must stay finite and ordered.
	lg1 := LogBinomialTail(5000, 5000, 0.01)
	lg2 := LogBinomialTail(5000, 4999, 0.01)
	if math.IsInf(lg1, -1) || math.IsNaN(lg1) {
		t.Fatalf("log tail not finite: %v", lg1)
	}
	if !(lg1 < lg2) {
		t.Errorf("monotonicity violated in deep underflow: %v >= %v", lg1, lg2)
	}
}

func TestLogBinomialTailMonotoneInK(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(300)
		k := 1 + rr.Intn(n-1)
		p := 0.001 + 0.998*rr.Float64()
		// Higher observed support => lower (or equal) p-value.
		return LogBinomialTail(n, k+1, p) <= LogBinomialTail(n, k, p)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestLogBinomialTailMonotoneInP(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 2 + rr.Intn(300)
		k := 1 + rr.Intn(n)
		p1 := rr.Float64()
		p2 := rr.Float64()
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		// Rarer pattern (smaller prior) => smaller tail probability.
		return LogBinomialTail(n, k, p1) <= LogBinomialTail(n, k, p2)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 5, 40} {
		for _, p := range []float64{0.1, 0.5, 0.93} {
			sum := 0.0
			for k := 0; k <= n; k++ {
				sum += BinomialPMF(n, k, p)
			}
			if !almostEqual(sum, 1, 1e-9) {
				t.Errorf("pmf(n=%d,p=%g) sums to %g", n, p, sum)
			}
		}
	}
}

func TestLogChoose(t *testing.T) {
	tests := []struct {
		n, k int
		want float64
	}{
		{5, 2, math.Log(10)},
		{10, 0, 0},
		{10, 10, 0},
		{52, 5, math.Log(2598960)},
	}
	for _, tc := range tests {
		if got := LogChoose(tc.n, tc.k); !almostEqual(got, tc.want, 1e-9) {
			t.Errorf("LogChoose(%d,%d) = %g; want %g", tc.n, tc.k, got, tc.want)
		}
	}
	if got := LogChoose(3, 5); !math.IsInf(got, -1) {
		t.Errorf("LogChoose(3,5) = %v; want -Inf", got)
	}
}

func TestBinomialTailPaperExample(t *testing.T) {
	// Sanity example in the spirit of §III-B: P(x)=3/16, m=4 trials,
	// observed support 2 => p-value = sum_{i=2..4} C(4,i) q^i (1-q)^(4-i).
	q := 3.0 / 16.0
	want := 0.0
	for i := 2; i <= 4; i++ {
		want += BinomialPMF(4, i, q)
	}
	if got := BinomialTail(4, 2, q); !almostEqual(got, want, 1e-12) {
		t.Errorf("BinomialTail = %g; want %g", got, want)
	}
}

func TestLogBeta(t *testing.T) {
	// B(1,1)=1, B(2,3)=1/12, B(0.5,0.5)=pi.
	tests := []struct{ a, b, want float64 }{
		{1, 1, 0},
		{2, 3, math.Log(1.0 / 12)},
		{0.5, 0.5, math.Log(math.Pi)},
	}
	for _, tc := range tests {
		if got := LogBeta(tc.a, tc.b); !almostEqual(got, tc.want, 1e-10) {
			t.Errorf("LogBeta(%g,%g) = %g; want %g", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestBinomialPMFEdges(t *testing.T) {
	if BinomialPMF(5, -1, 0.5) != 0 || BinomialPMF(5, 6, 0.5) != 0 {
		t.Error("out-of-range k should have zero mass")
	}
	if BinomialPMF(5, 0, 0) != 1 || BinomialPMF(5, 3, 0) != 0 {
		t.Error("p=0 edge wrong")
	}
	if BinomialPMF(5, 5, 1) != 1 || BinomialPMF(5, 2, 1) != 0 {
		t.Error("p=1 edge wrong")
	}
}

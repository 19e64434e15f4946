package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAUCPerfectClassifier(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	if got := AUC(scores, labels); got != 1 {
		t.Errorf("AUC = %f; want 1", got)
	}
}

func TestAUCWorstClassifier(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []bool{true, true, false, false}
	if got := AUC(scores, labels); got != 0 {
		t.Errorf("AUC = %f; want 0", got)
	}
}

func TestAUCAllTied(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []bool{true, true, false, false}
	if got := AUC(scores, labels); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("AUC = %f; want 0.5", got)
	}
}

func TestAUCSingleClass(t *testing.T) {
	if got := AUC([]float64{1, 2}, []bool{true, true}); got != 0.5 {
		t.Errorf("AUC = %f; want 0.5 fallback", got)
	}
}

func TestAUCKnownValue(t *testing.T) {
	// One mis-ranked pair among 2x2: positives {0.9, 0.3}, negatives
	// {0.5, 0.1}. Pairs won: (0.9>0.5),(0.9>0.1),(0.3>0.1) = 3 of 4.
	scores := []float64{0.9, 0.3, 0.5, 0.1}
	labels := []bool{true, true, false, false}
	if got := AUC(scores, labels); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("AUC = %f; want 0.75", got)
	}
}

func TestAUCMatchesPairCounting(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := 4 + rr.Intn(40)
		scores := make([]float64, n)
		labels := make([]bool, n)
		hasPos, hasNeg := false, false
		for i := range scores {
			scores[i] = float64(rr.Intn(10)) / 10 // force ties
			labels[i] = rr.Float64() < 0.5
			if labels[i] {
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if !hasPos || !hasNeg {
			return true
		}
		// Direct O(n^2) pair counting with half credit for ties.
		wins, total := 0.0, 0.0
		for i := range scores {
			if !labels[i] {
				continue
			}
			for j := range scores {
				if labels[j] {
					continue
				}
				total++
				switch {
				case scores[i] > scores[j]:
					wins++
				case scores[i] == scores[j]:
					wins += 0.5
				}
			}
		}
		return math.Abs(AUC(scores, labels)-wins/total) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestStratifiedKFold(t *testing.T) {
	labels := make([]bool, 100)
	for i := 0; i < 20; i++ {
		labels[i] = true
	}
	folds := StratifiedKFold(labels, 5, 7)
	if len(folds) != 5 {
		t.Fatalf("got %d folds", len(folds))
	}
	seen := map[int]int{}
	for _, f := range folds {
		if len(f.Test)+len(f.Train) != 100 {
			t.Errorf("fold sizes: test %d + train %d != 100", len(f.Test), len(f.Train))
		}
		pos := 0
		for _, i := range f.Test {
			seen[i]++
			if labels[i] {
				pos++
			}
		}
		// Each test fold holds ~4 of the 20 positives.
		if pos < 3 || pos > 5 {
			t.Errorf("fold has %d positives in test; want ~4", pos)
		}
		// Train and test are disjoint.
		inTest := map[int]bool{}
		for _, i := range f.Test {
			inTest[i] = true
		}
		for _, i := range f.Train {
			if inTest[i] {
				t.Error("train/test overlap")
			}
		}
	}
	// Every index appears in exactly one test fold.
	for i := 0; i < 100; i++ {
		if seen[i] != 1 {
			t.Errorf("index %d in %d test folds", i, seen[i])
		}
	}
}

func TestStratifiedKFoldDeterministic(t *testing.T) {
	labels := make([]bool, 30)
	for i := 0; i < 6; i++ {
		labels[i] = true
	}
	a := StratifiedKFold(labels, 3, 11)
	b := StratifiedKFold(labels, 3, 11)
	for f := range a {
		if len(a[f].Test) != len(b[f].Test) {
			t.Fatal("folds differ across runs")
		}
		for i := range a[f].Test {
			if a[f].Test[i] != b[f].Test[i] {
				t.Fatal("folds differ across runs")
			}
		}
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %f; want 5", m)
	}
	if s := StdDev(xs); math.Abs(s-2.13809) > 1e-4 {
		t.Errorf("StdDev = %f; want ~2.138", s)
	}
	if Mean(nil) != 0 || StdDev([]float64{1}) != 0 {
		t.Error("empty/single-element edge cases wrong")
	}
}

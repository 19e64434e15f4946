// Package metrics provides the evaluation machinery of §VI-D: AUC
// computation and stratified k-fold cross validation.
package metrics

import (
	"math"
	"math/rand"
	"sort"
)

// AUC computes the area under the ROC curve from decision scores and
// binary labels (true = positive). Higher scores should indicate the
// positive class. Ties are handled by the rank-statistic (Mann-Whitney)
// formulation: tied score groups contribute half credit. It returns 0.5
// when either class is empty (no ranking information).
func AUC(scores []float64, labels []bool) float64 {
	if len(scores) != len(labels) {
		panic("metrics: scores/labels length mismatch")
	}
	type pair struct {
		score float64
		pos   bool
	}
	ps := make([]pair, len(scores))
	nPos, nNeg := 0, 0
	for i, s := range scores {
		ps[i] = pair{s, labels[i]}
		if labels[i] {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].score < ps[j].score })

	// Sum ranks of positives with mid-ranks for ties.
	rankSum := 0.0
	i := 0
	for i < len(ps) {
		j := i
		for j < len(ps) && ps[j].score == ps[i].score {
			j++
		}
		// Ranks i+1 .. j (1-based); mid-rank for the tie group.
		mid := float64(i+1+j) / 2
		for k := i; k < j; k++ {
			if ps[k].pos {
				rankSum += mid
			}
		}
		i = j
	}
	u := rankSum - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}

// Fold is one cross-validation split: indices into the original dataset.
type Fold struct {
	Train []int
	Test  []int
}

// StratifiedKFold splits indices into k folds preserving the class ratio.
// Splitting is deterministic given the seed.
func StratifiedKFold(labels []bool, k int, seed int64) []Fold {
	if k < 2 {
		panic("metrics: k must be >= 2")
	}
	rng := rand.New(rand.NewSource(seed))
	var pos, neg []int
	for i, l := range labels {
		if l {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })

	folds := make([]Fold, k)
	assign := func(idxs []int) {
		for i, idx := range idxs {
			folds[i%k].Test = append(folds[i%k].Test, idx)
		}
	}
	assign(pos)
	assign(neg)
	for f := range folds {
		inTest := map[int]bool{}
		for _, i := range folds[f].Test {
			inTest[i] = true
		}
		for i := range labels {
			if !inTest[i] {
				folds[f].Train = append(folds[f].Train, i)
			}
		}
		sort.Ints(folds[f].Test)
		sort.Ints(folds[f].Train)
	}
	return folds
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the sample standard deviation of xs (0 for fewer than
// two samples).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

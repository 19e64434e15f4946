package fvmine

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphsig/internal/sigmodel"
)

// TestMineTopKMatchesThresholdMine: the top-k results must be exactly
// the k most significant vectors that an unthresholded Mine finds.
func TestMineTopKMatchesThresholdMine(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		vectors := randVectors(rr, 5+rr.Intn(25), 1+rr.Intn(4), 3)
		minSup := 1 + rr.Intn(2)
		k := 1 + rr.Intn(6)
		model := sigmodel.New(vectors)

		full := Mine(vectors, Options{MinSupport: minSup, MaxPvalue: 1, Model: model, SkipZeroFloor: true})
		SortBySignificance(full.Vectors)
		want := full.Vectors
		if len(want) > k {
			want = want[:k]
		}

		got := MineTopK(vectors, k, minSup, model, nil)
		if len(got) != len(want) {
			t.Logf("got %d, want %d (k=%d)", len(got), len(want), k)
			return false
		}
		for i := range got {
			// Compare by p-value; tied p-values may order differently.
			if math.Abs(got[i].LogPValue-want[i].LogPValue) > 1e-9 {
				t.Logf("rank %d: got logP %f want %f", i, got[i].LogPValue, want[i].LogPValue)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: r}); err != nil {
		t.Error(err)
	}
}

func TestMineTopKOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(102))
	vectors := randVectors(r, 40, 4, 3)
	got := MineTopK(vectors, 10, 2, nil, nil)
	for i := 1; i < len(got); i++ {
		if got[i-1].LogPValue > got[i].LogPValue {
			t.Fatal("top-k not ordered most significant first")
		}
	}
}

func TestMineTopKEdgeCases(t *testing.T) {
	if got := MineTopK(nil, 5, 1, nil, nil); got != nil {
		t.Error("empty input should yield nil")
	}
	vectors := randVectors(rand.New(rand.NewSource(103)), 10, 3, 2)
	if got := MineTopK(vectors, 0, 1, nil, nil); got != nil {
		t.Error("k=0 should yield nil")
	}
	if got := MineTopK(vectors, 5, 100, nil, nil); got != nil {
		t.Error("minSupport beyond input should yield nil")
	}
}

func TestMineTopKRespectsSupport(t *testing.T) {
	vectors := randVectors(rand.New(rand.NewSource(104)), 30, 4, 3)
	for _, s := range MineTopK(vectors, 8, 5, nil, nil) {
		if s.Support < 5 {
			t.Errorf("vector with support %d below minimum 5", s.Support)
		}
	}
}

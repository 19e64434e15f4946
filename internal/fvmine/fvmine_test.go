package fvmine

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"graphsig/internal/feature"
	"graphsig/internal/runctl"
	"graphsig/internal/sigmodel"
)

func tableI() []feature.Vector {
	return []feature.Vector{
		{1, 0, 0, 2}, // v1
		{1, 1, 0, 2}, // v2
		{2, 0, 1, 2}, // v3
		{1, 0, 1, 0}, // v4
	}
}

func TestMineTableIAllClosedVectors(t *testing.T) {
	// With support and p-value thresholds of 1 (the Fig 8 running
	// example), FVMine reports every closed vector exactly once.
	res := Mine(tableI(), Options{MinSupport: 1, MaxPvalue: 1})
	if res.Truncated {
		t.Fatal("unexpected truncation")
	}
	seen := map[string]bool{}
	for _, s := range res.Vectors {
		if seen[s.Vec.Key()] {
			t.Errorf("duplicate closed vector %v", s.Vec)
		}
		seen[s.Vec.Key()] = true
	}
	// The floor of the full database [1 0 0 0] must be reported with
	// support 4.
	foundRoot := false
	for _, s := range res.Vectors {
		if s.Vec.Equal(feature.Vector{1, 0, 0, 0}) {
			foundRoot = true
			if s.Support != 4 {
				t.Errorf("root support = %d; want 4", s.Support)
			}
		}
	}
	if !foundRoot {
		t.Error("floor of database not reported")
	}
	// Each input vector is itself closed (it is the floor of its own
	// exact-support set).
	for i, v := range tableI() {
		if !seen[v.Key()] {
			t.Errorf("input vector v%d %v not reported as closed", i+1, v)
		}
	}
}

func TestSupportSetsAreExact(t *testing.T) {
	vectors := tableI()
	res := Mine(vectors, Options{MinSupport: 1, MaxPvalue: 1})
	for _, s := range res.Vectors {
		// Recompute the exact support of s.Vec.
		var want []int
		for i, v := range vectors {
			if s.Vec.SubVectorOf(v) {
				want = append(want, i)
			}
		}
		if len(want) != len(s.SupportIdx) {
			t.Errorf("vector %v: support %v; want %v", s.Vec, s.SupportIdx, want)
			continue
		}
		for i := range want {
			if want[i] != s.SupportIdx[i] {
				t.Errorf("vector %v: support %v; want %v", s.Vec, s.SupportIdx, want)
				break
			}
		}
		if s.Support != len(want) {
			t.Errorf("vector %v: Support=%d; want %d", s.Vec, s.Support, len(want))
		}
	}
}

func TestMinSupportPrunes(t *testing.T) {
	res := Mine(tableI(), Options{MinSupport: 3, MaxPvalue: 1})
	for _, s := range res.Vectors {
		if s.Support < 3 {
			t.Errorf("vector %v has support %d < 3", s.Vec, s.Support)
		}
	}
}

func TestPValueThresholdFilters(t *testing.T) {
	vectors := tableI()
	all := Mine(vectors, Options{MinSupport: 1, MaxPvalue: 1})
	strict := Mine(vectors, Options{MinSupport: 1, MaxPvalue: 0.3})
	if len(strict.Vectors) >= len(all.Vectors) {
		t.Errorf("strict threshold kept %d of %d", len(strict.Vectors), len(all.Vectors))
	}
	for _, s := range strict.Vectors {
		if s.PValue > 0.3+1e-12 {
			t.Errorf("vector %v has p-value %g > 0.3", s.Vec, s.PValue)
		}
	}
}

func TestSkipZeroFloor(t *testing.T) {
	vectors := []feature.Vector{{0, 0}, {0, 1}, {1, 0}}
	res := Mine(vectors, Options{MinSupport: 1, MaxPvalue: 1, SkipZeroFloor: true})
	for _, s := range res.Vectors {
		if s.Vec.IsZero() {
			t.Errorf("zero floor reported despite SkipZeroFloor")
		}
	}
}

func TestDeadline(t *testing.T) {
	// A controller whose deadline has already passed stops the mine at
	// its up-front check, before any state is expanded.
	r := rand.New(rand.NewSource(81))
	vectors := randVectors(r, 200, 8, 4)
	ctl := runctl.New(runctl.Options{Deadline: time.Now().Add(-time.Second)})
	res := Mine(vectors, Options{MinSupport: 1, MaxPvalue: 1, Ctl: ctl})
	if !res.Truncated || res.StopReason != runctl.ReasonDeadline {
		t.Errorf("truncated=%v reason=%q; want a deadline stop", res.Truncated, res.StopReason)
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

// bruteClosed enumerates every vector in the bounded product space,
// keeps those with support >= minSup that are closed (equal to the floor
// of their exact support set) and significant.
func bruteClosed(vectors []feature.Vector, minSup int, maxPvalue float64) map[string]int {
	model := sigmodel.New(vectors)
	dim := len(vectors[0])
	maxBin := 0
	for _, v := range vectors {
		for _, x := range v {
			if int(x) > maxBin {
				maxBin = int(x)
			}
		}
	}
	out := map[string]int{}
	cur := make(feature.Vector, dim)
	var rec func(i int)
	rec = func(i int) {
		if i == dim {
			var support []feature.Vector
			count := 0
			for _, v := range vectors {
				if cur.SubVectorOf(v) {
					support = append(support, v)
					count++
				}
			}
			if count < minSup {
				return
			}
			if !feature.Floor(support).Equal(cur) {
				return // not closed
			}
			if model.LogPValue(cur, count) <= math.Log(maxPvalue) {
				out[cur.Key()] = count
			}
			return
		}
		for v := 0; v <= maxBin; v++ {
			cur[i] = uint8(v)
			rec(i + 1)
		}
		cur[i] = 0
	}
	rec(0)
	return out
}

// exactSupport reports whether s.SupportIdx lists, ascending, exactly
// the vectors s.Vec is a sub-vector of.
func exactSupport(vectors []feature.Vector, s Significant) error {
	var want []int
	for i, v := range vectors {
		if s.Vec.SubVectorOf(v) {
			want = append(want, i)
		}
	}
	if s.Support != len(want) || !slices.Equal(s.SupportIdx, want) {
		return fmt.Errorf("vector %v: support %d %v; want %v", s.Vec, s.Support, s.SupportIdx, want)
	}
	return nil
}

// checkMineAgainstBrute compares Mine, and MineTopK at several k, with
// exhaustive enumeration of the closed vectors of a small instance.
func checkMineAgainstBrute(vectors []feature.Vector, minSup int, maxP float64) error {
	want := bruteClosed(vectors, minSup, maxP)
	res := Mine(vectors, Options{MinSupport: minSup, MaxPvalue: maxP})
	got := map[string]int{}
	for _, s := range res.Vectors {
		if _, dup := got[s.Vec.Key()]; dup {
			return fmt.Errorf("duplicate output %v", s.Vec)
		}
		if err := exactSupport(vectors, s); err != nil {
			return err
		}
		got[s.Vec.Key()] = s.Support
	}
	if len(got) != len(want) {
		return fmt.Errorf("count %d != %d (minSup=%d maxP=%g, db=%v)", len(got), len(want), minSup, maxP, vectors)
	}
	for k, sup := range want {
		if got[k] != sup {
			return fmt.Errorf("support mismatch for %v: got %d want %d", feature.Vector(k), got[k], sup)
		}
	}

	// Top-k: the k smallest log p-values among the non-zero closed
	// vectors, in order, each from a closed vector with its support.
	model := sigmodel.New(vectors)
	closed := bruteClosed(vectors, minSup, 1)
	var ranked []float64
	for k, sup := range closed {
		if !feature.Vector(k).IsZero() {
			ranked = append(ranked, model.LogPValue(feature.Vector(k), sup))
		}
	}
	sort.Float64s(ranked)
	for _, k := range []int{1, 2, 5, len(ranked) + 1} {
		top := MineTopK(vectors, k, minSup, model, nil)
		if len(top) != min(k, len(ranked)) {
			return fmt.Errorf("top-%d: %d results; want %d", k, len(top), min(k, len(ranked)))
		}
		for i, s := range top {
			if sup, ok := closed[s.Vec.Key()]; !ok || sup != s.Support {
				return fmt.Errorf("top-%d: %v (support %d) is not a closed vector of that support", k, s.Vec, s.Support)
			}
			if err := exactSupport(vectors, s); err != nil {
				return fmt.Errorf("top-%d: %w", k, err)
			}
			if s.LogPValue != ranked[i] {
				return fmt.Errorf("top-%d rank %d: log p-value %v; want %v", k, i, s.LogPValue, ranked[i])
			}
		}
	}
	return nil
}

// TestPropertyMineMatchesBruteForce verifies completeness and soundness
// of FVMine against exhaustive enumeration on small instances.
func TestPropertyMineMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		vectors := randVectors(rr, 3+rr.Intn(8), 1+rr.Intn(3), 2)
		minSup := 1 + rr.Intn(2)
		maxP := []float64{0.2, 0.5, 1}[rr.Intn(3)]
		if err := checkMineAgainstBrute(vectors, minSup, maxP); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: r}); err != nil {
		t.Error(err)
	}
}

// FuzzFVMineOracle checks Mine and MineTopK against brute force on
// fuzzer-chosen databases: up to 12 vectors of dimension at most 4 with
// values at most 3. The first byte picks the dimension, the second the
// support and p-value thresholds; the rest are the vector entries.
func FuzzFVMineOracle(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 0, 2, 1, 1, 0, 2, 2, 0, 1, 2, 1, 0, 1, 0})
	f.Add([]byte{1, 5, 0, 1, 2, 3, 3, 3, 2, 1, 0})
	f.Add([]byte{3, 9, 1, 0, 0, 1, 1, 0, 2, 0, 1, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		dim := 1 + int(data[0])%4
		minSup := 1 + int(data[1])%3
		maxP := []float64{0.05, 0.2, 0.5, 1}[int(data[1]/3)%4]
		cells := data[2:]
		count := min(len(cells)/dim, 12)
		if count == 0 {
			return
		}
		vectors := make([]feature.Vector, count)
		for i := range vectors {
			v := make(feature.Vector, dim)
			for j := range v {
				v[j] = cells[i*dim+j] % 4
			}
			vectors[i] = v
		}
		if err := checkMineAgainstBrute(vectors, minSup, maxP); err != nil {
			t.Fatal(err)
		}
	})
}

// wideVectors draws count vectors of dimension dim from seed, with
// values at most 3. Zero takes five entries in eight, so the states of
// high floors have few members: a group of 65 or more vectors spans
// several words, and its small sets take the list scan in bounds.
func wideVectors(seed int64, count, dim int) []feature.Vector {
	r := rand.New(rand.NewSource(seed))
	vs := make([]feature.Vector, count)
	for i := range vs {
		v := make(feature.Vector, dim)
		for j := range v {
			v[j] = uint8(r.Intn(4) * r.Intn(2))
		}
		vs[i] = v
	}
	return vs
}

// TestPropertyWideMineMatchesBruteForce checks Mine and MineTopK against
// brute force on groups of 65 to 400 vectors: multi-word supporting
// sets, through both the bitset bounds and the list scan.
func TestPropertyWideMineMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(84))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		vectors := wideVectors(rr.Int63(), 65+rr.Intn(336), 1+rr.Intn(3))
		minSup := 1 + rr.Intn(4)
		maxP := []float64{0.05, 0.2, 0.5, 1}[rr.Intn(4)]
		if err := checkMineAgainstBrute(vectors, minSup, maxP); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: r}); err != nil {
		t.Error(err)
	}
}

// FuzzFVMineOracleWide is FuzzFVMineOracle on groups of 65 to 400
// vectors of dimension at most 3 with values at most 3, drawn by
// wideVectors from a seed hashed from the input. The first two bytes
// pick the vector count, the third the dimension, the support (1 to 4)
// and the p-value threshold.
func FuzzFVMineOracleWide(f *testing.F) {
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 7, 11, 42})
	f.Add([]byte{255, 255, 47, 3, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		count := 65 + (int(data[0])<<8|int(data[1]))%336
		dim := 1 + int(data[2])%3
		minSup := 1 + int(data[2]/3)%4
		maxP := []float64{0.05, 0.2, 0.5, 1}[int(data[2]/12)%4]
		h := fnv.New64a()
		h.Write(data[3:])
		vectors := wideVectors(int64(h.Sum64()), count, dim)
		if err := checkMineAgainstBrute(vectors, minSup, maxP); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSortBySignificance(t *testing.T) {
	vs := []Significant{
		{Vec: feature.Vector{1}, LogPValue: -1, Support: 5},
		{Vec: feature.Vector{2}, LogPValue: -10, Support: 2},
		{Vec: feature.Vector{3}, LogPValue: -1, Support: 9},
	}
	SortBySignificance(vs)
	if !vs[0].Vec.Equal(feature.Vector{2}) {
		t.Errorf("most significant first: got %v", vs[0].Vec)
	}
	if !vs[1].Vec.Equal(feature.Vector{3}) {
		t.Errorf("tie broken by support: got %v", vs[1].Vec)
	}
}

func TestEmptyInput(t *testing.T) {
	res := Mine(nil, Options{MinSupport: 1, MaxPvalue: 1})
	if len(res.Vectors) != 0 || res.Truncated {
		t.Errorf("unexpected result %+v", res)
	}
}

func TestStatesExploredExposesPruning(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	vectors := randVectors(r, 40, 5, 3)
	loose := Mine(vectors, Options{MinSupport: 1, MaxPvalue: 1})
	tight := Mine(vectors, Options{MinSupport: 8, MaxPvalue: 1})
	if tight.StatesExplored >= loose.StatesExplored {
		t.Errorf("support pruning did not reduce states: %d >= %d",
			tight.StatesExplored, loose.StatesExplored)
	}
}

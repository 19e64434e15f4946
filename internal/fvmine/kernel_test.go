package fvmine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/feature"
	"graphsig/internal/graph"
	"graphsig/internal/rwr"
	"graphsig/internal/sigmodel"
)

// molt4Groups returns the FVMine inputs of a GraphSig mine over the
// first n molecules of the MOLT-4 screen, built the way core.Mine builds
// them under its Table IV defaults: RWR vectors (alpha 0.25, 10 bins)
// over the chemistry feature set of the top 5 atoms, grouped by source
// label in ascending label order, and the global model over every
// vector. core itself cannot be imported here: it imports fvmine.
func molt4Groups(n int) ([][]feature.Vector, *sigmodel.Model) {
	db := chem.GenerateN(chem.CancerSpecs()[1], n).Graphs
	fs := feature.ChemistrySet(db, chem.Alphabet(), 5)
	vectors, _ := rwr.DatabaseVectors(db, fs, rwr.Config{Alpha: 0.25, Bins: 10})
	all := make([]feature.Vector, len(vectors))
	byLabel := map[graph.Label][]feature.Vector{}
	for i, nv := range vectors {
		all[i] = nv.Vec
		byLabel[nv.Label] = append(byLabel[nv.Label], nv.Vec)
	}
	labels := make([]graph.Label, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })
	groups := make([][]feature.Vector, len(labels))
	for i, l := range labels {
		groups[i] = byLabel[l]
	}
	return groups, sigmodel.New(all)
}

// coreOptions are the options core.Mine gives FVMine for a label group
// of n vectors: support 0.1% of the group but at least 3, p-value 0.1,
// zero floors dropped.
func coreOptions(n int, model *sigmodel.Model) Options {
	minSup := max(int(math.Ceil(0.1/100*float64(n))), 3)
	return Options{MinSupport: minSup, MaxPvalue: 0.1, Model: model, SkipZeroFloor: true}
}

// sameSignificant reports the first difference between two result
// lists: order, vectors, supporting sets and p-value bits must agree.
func sameSignificant(got, want []Significant) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results; want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		switch {
		case !g.Vec.Equal(w.Vec):
			return fmt.Errorf("result %d: vector %v; want %v", i, g.Vec, w.Vec)
		case g.Support != w.Support || !slices.Equal(g.SupportIdx, w.SupportIdx):
			return fmt.Errorf("result %d (%v): support %d %v; want %d %v", i, g.Vec, g.Support, g.SupportIdx, w.Support, w.SupportIdx)
		case math.Float64bits(g.LogPValue) != math.Float64bits(w.LogPValue),
			math.Float64bits(g.PValue) != math.Float64bits(w.PValue):
			return fmt.Errorf("result %d (%v): log p-value %v; want %v", i, g.Vec, g.LogPValue, w.LogPValue)
		}
	}
	return nil
}

// TestKernelMatchesReference runs the bitset searcher and the index-list
// reference kernel on every label group of MOLT-4 x400 and x60 under
// core's options: Mine and MineTopK must return the same vectors in the
// same order, the same supporting sets and the same p-value bits, after
// exploring the same number of states.
func TestKernelMatchesReference(t *testing.T) {
	for _, graphs := range []int{400, 60} {
		groups, model := molt4Groups(graphs)
		for gi, vecs := range groups {
			opt := coreOptions(len(vecs), model)
			got, want := Mine(vecs, opt), refMine(vecs, opt)
			if got.StatesExplored != want.StatesExplored {
				t.Errorf("x%d group %d (%d vectors): Mine explored %d states; reference %d",
					graphs, gi, len(vecs), got.StatesExplored, want.StatesExplored)
			}
			if err := sameSignificant(got.Vectors, want.Vectors); err != nil {
				t.Errorf("x%d group %d (%d vectors): Mine: %v", graphs, gi, len(vecs), err)
			}
			for _, k := range []int{1, 10, 100} {
				got, gotStates := mineTopK(vecs, k, opt.MinSupport, model, nil)
				want, wantStates := refMineTopK(vecs, k, opt.MinSupport, model, nil)
				if gotStates != wantStates {
					t.Errorf("x%d group %d: top-%d explored %d states; reference %d", graphs, gi, k, gotStates, wantStates)
				}
				if err := sameSignificant(got, want); err != nil {
					t.Errorf("x%d group %d: top-%d: %v", graphs, gi, k, err)
				}
			}
		}
	}
}

// TestKernelMatchesReferenceAcrossThresholds runs Mine and the
// reference kernel, which evaluates every p-value it compares, on every
// MOLT-4 x60 label group at thresholds on both sides of the ½ guard of
// the left-of-mean bound (0.49, 0.5, 0.9) and one that leaves most
// ceilings to the Chernoff bound (1e-6). Both must return the same
// vectors, supporting sets and p-value bits after the same states.
func TestKernelMatchesReferenceAcrossThresholds(t *testing.T) {
	groups, model := molt4Groups(60)
	for _, maxP := range []float64{1e-6, 0.49, 0.5, 0.9} {
		for gi, vecs := range groups {
			opt := coreOptions(len(vecs), model)
			opt.MaxPvalue = maxP
			got, want := Mine(vecs, opt), refMine(vecs, opt)
			if got.StatesExplored != want.StatesExplored {
				t.Errorf("maxP %g, group %d (%d vectors): Mine explored %d states; reference %d",
					maxP, gi, len(vecs), got.StatesExplored, want.StatesExplored)
			}
			if err := sameSignificant(got.Vectors, want.Vectors); err != nil {
				t.Errorf("maxP %g, group %d (%d vectors): %v", maxP, gi, len(vecs), err)
			}
		}
	}
}

var benchStates int

// BenchmarkMineLargestGroup times Mine on the largest label group of
// MOLT-4 x400 (its carbon atoms, 8,193 vectors, minimum support 9) under
// core's options and the global model, and reports the states explored
// per mine.
func BenchmarkMineLargestGroup(b *testing.B) {
	groups, model := molt4Groups(400)
	var largest []feature.Vector
	for _, vecs := range groups {
		if len(vecs) > len(largest) {
			largest = vecs
		}
	}
	opt := coreOptions(len(largest), model)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStates = Mine(largest, opt).StatesExplored
	}
	b.ReportMetric(float64(benchStates), "states/op")
}

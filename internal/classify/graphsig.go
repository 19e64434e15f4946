// Package classify implements the graph classification application of §V:
// the GraphSig significant-pattern classifier (Algorithms 3 and 4) and
// uniform pipelines around the two §VI-D baselines, the LEAP-style
// pattern classifier and the optimal-assignment kernel SVM.
package classify

import (
	"math"
	"sort"

	"graphsig/internal/core"
	"graphsig/internal/feature"
	"graphsig/internal/graph"
	"graphsig/internal/rwr"
)

// GraphSigOptions configures the significant-pattern classifier.
type GraphSigOptions struct {
	// K is the number of nearest significant vectors voting (paper: 9).
	K int
	// Delta is the small constant added to distances before inversion
	// (Algorithm 3 line 11).
	Delta float64
	// Core configures the underlying significant-vector mining; zero
	// values fall back to Table IV defaults.
	Core core.Config
}

// DefaultGraphSigOptions returns the paper's classification setup (k=9).
func DefaultGraphSigOptions() GraphSigOptions {
	return GraphSigOptions{K: 9, Delta: 1, Core: core.Defaults()}
}

// GraphSigClassifier scores query graphs by the distance-weighted vote of
// their k closest significant sub-feature vectors from the positive and
// negative training sets.
type GraphSigClassifier struct {
	opt GraphSigOptions
	fs  *feature.Set
	// pos and neg are the significant sub-feature vectors mined from the
	// positive and negative training graphs (ℙ and ℕ of Algorithm 3).
	pos, neg []feature.Vector
}

// TrainGraphSig mines significant sub-feature vectors from the positive
// and negative training graphs. The feature set is built over the whole
// training set so both classes share one vector space.
func TrainGraphSig(pos, neg []*graph.Graph, opt GraphSigOptions) *GraphSigClassifier {
	if opt.K <= 0 {
		opt.K = 9
	}
	if opt.Delta <= 0 {
		opt.Delta = 1
	}
	all := make([]*graph.Graph, 0, len(pos)+len(neg))
	all = append(all, pos...)
	all = append(all, neg...)
	cfg := opt.Core
	cfg.FeatureSet = core.BuildFeatureSet(all, cfg)

	c := &GraphSigClassifier{opt: opt, fs: cfg.FeatureSet}
	posGroups, _, _ := core.SignificantVectors(pos, cfg)
	for _, g := range posGroups {
		c.pos = append(c.pos, g.Sig.Vec)
	}
	negGroups, _, _ := core.SignificantVectors(neg, cfg)
	for _, g := range negGroups {
		c.neg = append(c.neg, g.Sig.Vec)
	}
	return c
}

// MinDist implements Algorithm 4: the least L1 gap between x and any
// sub-vector of x in vs, or +Inf when no vector in vs is a sub-vector.
func MinDist(x feature.Vector, vs []feature.Vector) float64 {
	min := math.Inf(1)
	for _, v := range vs {
		if !v.SubVectorOf(x) {
			continue
		}
		if d := float64(v.L1DistanceFrom(x)); d < min {
			min = d
		}
	}
	return min
}

// Score implements Algorithm 3: it returns the distance-weighted vote of
// the k closest significant training vectors over the query's node
// vectors. Positive scores classify positive; the magnitude serves as
// the ranking score for AUC.
func (c *GraphSigClassifier) Score(g *graph.Graph) float64 {
	vecs := rwr.GraphVectors(g, c.fs, rwr.Config{Alpha: c.opt.Core.Alpha, Bins: c.opt.Core.Bins})
	type entry struct {
		dist float64
		vote float64
	}
	var entries []entry
	for _, x := range vecs {
		posDist := MinDist(x, c.pos)
		negDist := MinDist(x, c.neg)
		if math.IsInf(posDist, 1) && math.IsInf(negDist, 1) {
			continue // no significant vector describes this region
		}
		if negDist < posDist {
			entries = append(entries, entry{negDist, -1})
		} else {
			entries = append(entries, entry{posDist, +1})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].dist < entries[j].dist })
	if len(entries) > c.opt.K {
		entries = entries[:c.opt.K]
	}
	score := 0.0
	for _, e := range entries {
		score += e.vote / (e.dist + c.opt.Delta)
	}
	return score
}

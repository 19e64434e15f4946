// Package leap is the pattern-based classification baseline standing in
// for LEAP, structural leap search (Yan et al., SIGMOD 2008) — see
// DESIGN.md, substitution 3. It mines subgraph patterns that discriminate
// a positive from a negative graph set: candidates are enumerated by
// gSpan over the positive set, scored by the G-test statistic between
// their class-conditional frequencies, pruned with the frequency-envelope
// upper bound (a pattern's descendants can never score above the bound
// achieved by keeping all its positive support and dropping all negative
// support), and reduced to a diverse top-k. Downstream, graphs become
// binary pattern-occurrence feature vectors for a linear SVM.
package leap

import (
	"math"
	"sort"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
	"graphsig/internal/gspan"
	"graphsig/internal/isomorph"
	"graphsig/internal/runctl"
)

// Options configures discriminative mining.
type Options struct {
	// MinPosFreq is the minimum frequency in the positive set, as a
	// fraction (default 0.15).
	MinPosFreq float64
	// TopK is the number of discriminative patterns retained
	// (default 20).
	TopK int
	// MaxEdges bounds candidate size (default 10).
	MaxEdges int
	// Ctl is the shared run controller, threaded into the gSpan
	// enumeration and the per-candidate scoring loop (each scored
	// candidate costs one isomorphism sweep over the negative set, so
	// scoring checkpoints un-amortized).
	Ctl *runctl.Controller
}

func (o *Options) fill() {
	if o.MinPosFreq <= 0 {
		o.MinPosFreq = 0.15
	}
	if o.TopK <= 0 {
		o.TopK = 20
	}
	if o.MaxEdges <= 0 {
		o.MaxEdges = 10
	}
}

// Pattern is a discriminative subgraph with its class statistics.
type Pattern struct {
	Graph *graph.Graph
	// PosFreq and NegFreq are class-conditional frequencies in [0,1].
	PosFreq, NegFreq float64
	// Score is the G-test statistic of the frequency contrast.
	Score float64
}

// GTest returns the G-test statistic contrasting a pattern's frequency p
// in the positive class against q in the negative class (per-graph
// Bernoulli formulation, as used by LEAP's objective family).
func GTest(p, q float64) float64 {
	return 2 * (term(p, q) + term(1-p, 1-q))
}

func term(p, q float64) float64 {
	if p <= 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9 // smoothed: absent in the other class is maximal evidence
	}
	return p * math.Log(p/q)
}

// Mine returns the top-k discriminative patterns contrasting pos against
// neg, using LEAP's frequency-descending strategy: candidates are
// enumerated at a high positive-frequency threshold first (cheap,
// high-quality patterns tend to be frequent in their own class), the
// threshold halves each round, and mining stops once the frequency
// envelope proves that no lower-frequency pattern can beat the current
// k-th best score.
func Mine(pos, neg []*graph.Graph, opt Options) []Pattern {
	opt.fill()
	if len(pos) == 0 {
		return nil
	}
	ctl := opt.Ctl
	cp := ctl.Checkpoint(runctl.StageLEAP)
	// Mining-internal isomorphism charges the miner pool; Budgets.VF2Nodes
	// is reserved for support verification and query-time search.
	cpVF2 := ctl.Checkpoint(runctl.StageLEAP)
	defer cp.Flush()
	defer cpVF2.Flush()

	scoredByKey := map[string]Pattern{}
	minedAbove := len(pos) + 1 // support threshold of the previous round
	for freq := 0.8; ; freq /= 2 {
		if freq < opt.MinPosFreq {
			freq = opt.MinPosFreq
		}
		minSup := int(math.Ceil(freq * float64(len(pos))))
		if minSup < 1 {
			minSup = 1
		}
		if minSup < minedAbove {
			res := gspan.Mine(pos, gspan.Options{
				MinSupport: minSup,
				MaxEdges:   opt.MaxEdges,
				Ctl:        ctl,
			})
			kth := kthBestScore(scoredByKey, opt.TopK)
			scoreCandidates(res.Patterns, pos, neg, opt, minedAbove, scoredByKey, kth, cp, cpVF2)
			minedAbove = minSup
		}
		if freq <= opt.MinPosFreq {
			break
		}
		if err := cp.Force(); err != nil {
			break
		}
		// Leap: a pattern first appearing below the next threshold has
		// positive frequency < freq; even with zero negative support it
		// scores at most GTest(freq, 0). If that cannot displace the
		// current top k, descending further is fruitless.
		if len(scoredByKey) >= opt.TopK && GTest(freq, 0) <= kthBestScore(scoredByKey, opt.TopK) {
			break
		}
	}

	// Ties on score and size break on the canonical key each pattern
	// was scored under, carried along rather than recomputed per
	// comparison.
	keys := make([]string, 0, len(scoredByKey))
	for key := range scoredByKey {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := scoredByKey[keys[i]], scoredByKey[keys[j]]
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.Graph.NumEdges() != b.Graph.NumEdges() {
			return a.Graph.NumEdges() > b.Graph.NumEdges()
		}
		return keys[i] < keys[j]
	})
	scored := make([]Pattern, len(keys))
	for i, key := range keys {
		scored[i] = scoredByKey[key]
	}
	return diverseTopK(scored, opt.TopK)
}

// kthBestScore returns the k-th largest score among the scored patterns,
// or 0 when fewer than k exist — the displacement bar a new pattern must
// clear to enter the top k.
func kthBestScore(scoredByKey map[string]Pattern, k int) float64 {
	if len(scoredByKey) < k {
		return 0
	}
	scores := make([]float64, 0, len(scoredByKey))
	for _, p := range scoredByKey {
		scores = append(scores, p.Score)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	return scores[k-1]
}

// scoreCandidates scores the patterns of one descending round, skipping
// those already scored in earlier rounds (support >= minedAbove) and
// pruning patterns whose frequency envelope cannot clear the k-th best
// score captured at round start.
func scoreCandidates(cands []dfscode.Pattern, pos, neg []*graph.Graph, opt Options,
	minedAbove int, scoredByKey map[string]Pattern, kth float64, cp, cpVF2 *runctl.Checkpoint) {
	sort.Slice(cands, func(i, j int) bool { return cands[i].Support > cands[j].Support })
	for _, cand := range cands {
		if cand.Support >= minedAbove {
			continue // scored in an earlier, higher-threshold round
		}
		// Un-amortized: one scored candidate can cost a full isomorphism
		// sweep over the negative set.
		if err := cp.Force(); err != nil {
			return
		}
		p := float64(cand.Support) / float64(len(pos))
		if len(scoredByKey) >= opt.TopK && GTest(p, 0) <= kth {
			continue
		}
		g := cand.Code.Graph()
		negSup := 0
		if len(neg) > 0 {
			var err error
			negSup, err = isomorph.SupportCtl(g, neg, cpVF2)
			if err != nil {
				return // partial negative count would misscore the pattern
			}
		}
		q := 0.0
		if len(neg) > 0 {
			q = float64(negSup) / float64(len(neg))
		}
		score := GTest(p, q)
		scoredByKey[cand.Code.String()] = Pattern{Graph: g, PosFreq: p, NegFreq: q, Score: score}
	}
}

// diverseTopK keeps the k best patterns, skipping patterns contained in
// an already-kept pattern with the same score signature (near-duplicate
// structural variants add no feature diversity). The patterns are
// pairwise non-isomorphic: they come from a map keyed by canonical code.
func diverseTopK(scored []Pattern, k int) []Pattern {
	var out []Pattern
	for _, cand := range scored {
		if len(out) >= k {
			break
		}
		dup := false
		for _, kept := range out {
			if kept.PosFreq == cand.PosFreq && kept.NegFreq == cand.NegFreq &&
				isomorph.SubgraphIsomorphic(cand.Graph, kept.Graph) {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		out = append(out, cand)
	}
	return out
}

// Featurize converts graphs to binary pattern-occurrence vectors over the
// mined patterns, the representation LEAP feeds to its SVM.
func Featurize(graphs []*graph.Graph, patterns []Pattern) [][]float64 {
	out := make([][]float64, len(graphs))
	for i, g := range graphs {
		v := make([]float64, len(patterns))
		for j, p := range patterns {
			if isomorph.SubgraphIsomorphic(p.Graph, g) {
				v[j] = 1
			}
		}
		out[i] = v
	}
	return out
}

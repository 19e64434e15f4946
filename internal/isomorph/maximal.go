package isomorph

import (
	"graphsig/internal/dfscode"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// Maximal is the containment sweep of MaximalFSM (Algorithm 2, line
// 13): it returns, in list order, the patterns not strictly contained
// in another pattern of the list. A pattern with an empty GraphIDs
// skips the TID screen for its pairs.
//
// Patterns must be connected with at least one edge. A pattern is then
// tested only against patterns with more edges, which is exact: a
// connected pattern contained in a connected host with as many edges
// covers every host node and edge, so it is the host itself.
//
// Each containment test draws VF2 search nodes from cp. Once the run is
// stopped the sweep returns the patterns already decided maximal plus
// the stop cause; the undecided tail is dropped, so every returned
// pattern is maximal within the full list. site labels the
// MMaximalPairs counter with the calling miner.
func Maximal(patterns []dfscode.Pattern, cp *runctl.Checkpoint, site string) ([]dfscode.Pattern, error) {
	// Containment of p in q forces q's TID list to be a subset of p's,
	// an integer-compare screen over the sorted lists; summaries then
	// reject on label histograms and degree sequences before VF2.
	sums := make([]*Summary, len(patterns))
	for i, p := range patterns {
		sums[i] = Summarize(p.Graph)
	}
	reg := cp.Metrics()
	pairs := reg.Counter(obs.MMaximalPairs, "site", site)
	rejects := reg.Counter(obs.MPrefilterRejects, "site", "maximal")
	passes := reg.Counter(obs.MPrefilterPasses, "site", "maximal")
	var keep []dfscode.Pattern
	for i, p := range patterns {
		maximal := true
		for j, q := range patterns {
			if i == j || q.Graph.NumEdges() <= p.Graph.NumEdges() {
				continue
			}
			pairs.Inc()
			if len(p.GraphIDs) > 0 && len(q.GraphIDs) > 0 && !SortedSubset(q.GraphIDs, p.GraphIDs) {
				rejects.Inc()
				continue
			}
			if !sums[j].CanContain(sums[i]) {
				rejects.Inc()
				continue
			}
			passes.Inc()
			hit, err := SubgraphIsomorphicCtl(p.Graph, q.Graph, cp)
			if err != nil {
				return keep, err
			}
			if hit {
				maximal = false
				break
			}
		}
		if maximal {
			keep = append(keep, p)
		}
	}
	return keep, nil
}

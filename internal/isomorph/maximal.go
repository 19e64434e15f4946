package isomorph

import (
	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// Maximal is the containment sweep of MaximalFSM (Algorithm 2, line
// 13): it returns, ascending, the indices of the patterns not strictly
// contained in another pattern of the list. tids[i] is pattern i's
// ascending TID list, or nil to skip the TID screen for its pairs.
//
// Patterns must be connected with at least one edge. A pattern is then
// tested only against patterns with more edges, which is exact: a
// connected pattern contained in a connected host with as many edges
// covers every host node and edge, so it is the host itself.
//
// Each containment test draws VF2 search nodes from cp. Once the run is
// stopped the sweep returns the indices already decided maximal plus
// the stop cause; the undecided tail is dropped, so every returned
// pattern is maximal within the full list. site labels the
// MMaximalPairs counter with the calling miner.
func Maximal(graphs []*graph.Graph, tids [][]int, cp *runctl.Checkpoint, site string) ([]int, error) {
	// Containment of p in q forces q's TID list to be a subset of p's,
	// an integer-compare screen over the sorted lists; summaries then
	// reject on label histograms and degree sequences before VF2.
	sums := make([]*Summary, len(graphs))
	for i, g := range graphs {
		sums[i] = Summarize(g)
	}
	reg := cp.Metrics()
	pairs := reg.Counter(obs.MMaximalPairs, "site", site)
	rejects := reg.Counter(obs.MPrefilterRejects, "site", "maximal")
	passes := reg.Counter(obs.MPrefilterPasses, "site", "maximal")
	var keep []int
	for i, p := range graphs {
		maximal := true
		for j, q := range graphs {
			if i == j || q.NumEdges() <= p.NumEdges() {
				continue
			}
			pairs.Inc()
			if len(tids[i]) > 0 && len(tids[j]) > 0 && !SortedSubset(tids[j], tids[i]) {
				rejects.Inc()
				continue
			}
			if !sums[j].CanContain(sums[i]) {
				rejects.Inc()
				continue
			}
			passes.Inc()
			hit, err := SubgraphIsomorphicCtl(p, q, cp)
			if err != nil {
				return keep, err
			}
			if hit {
				maximal = false
				break
			}
		}
		if maximal {
			keep = append(keep, i)
		}
	}
	return keep, nil
}

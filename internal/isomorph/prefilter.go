package isomorph

import (
	"sort"

	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// Summary is a cheap structural digest of a labeled graph: node and
// edge counts, per-node-label descending degree sequences, and
// per-(sorted node labels, edge label) edge counts. Comparing two
// summaries yields a necessary condition for subgraph monomorphism, so
// a Summary mismatch rejects a VF2 candidate without any search.
type Summary struct {
	numNodes int
	numEdges int
	// degrees maps a node label to that label class's degree sequence,
	// sorted descending.
	degrees map[graph.Label][]int
	// edges counts edges per (min node label, max node label, edge
	// label) triple.
	edges map[[3]int]int
}

// Summarize computes g's Summary from its frozen CSR view: degrees are
// rowStart deltas and labels come straight from the flat label arrays.
// Cost is O(nodes + edges) plus the per-label sorts; summaries are
// immutable afterwards and safe to share across goroutines.
func Summarize(g *graph.Graph) *Summary {
	c := g.CSR()
	s := &Summary{
		numNodes: len(c.NodeLabels),
		numEdges: g.NumEdges(),
		degrees:  make(map[graph.Label][]int),
		edges:    make(map[[3]int]int),
	}
	for v, l := range c.NodeLabels {
		s.degrees[l] = append(s.degrees[l], int(c.RowStart[v+1]-c.RowStart[v]))
	}
	for _, seq := range s.degrees {
		sort.Sort(sort.Reverse(sort.IntSlice(seq)))
	}
	for _, e := range g.Edges() {
		la, lb := int(c.NodeLabels[e.From]), int(c.NodeLabels[e.To])
		if la > lb {
			la, lb = lb, la
		}
		s.edges[[3]int{la, lb, int(e.Label)}]++
	}
	return s
}

// CanContain reports whether a graph with target summary t could
// contain a graph with pattern summary p as a subgraph monomorphism.
// False means provably impossible; true means VF2 must decide.
//
// Soundness: every check is a consequence of an embedding existing. An
// injective label-preserving node map that preserves edges (with
// labels) implies (1) the target has at least as many nodes and edges;
// (2) for each node label ℓ, each pattern node of label ℓ maps to a
// distinct target node of label ℓ whose degree is at least the pattern
// node's degree (every pattern edge at that node maps to a distinct
// target edge), so the i-th largest ℓ-degree in the pattern is bounded
// by the i-th largest ℓ-degree in the target; (3) each pattern edge
// maps to a distinct target edge with the same (node labels, edge
// label) triple, so per-triple counts are dominated. None of these can
// fail while an embedding exists, so a reject never drops a true match.
func (t *Summary) CanContain(p *Summary) bool {
	if p.numNodes > t.numNodes || p.numEdges > t.numEdges {
		return false
	}
	for l, pd := range p.degrees {
		td := t.degrees[l]
		if len(pd) > len(td) {
			return false
		}
		for i, d := range pd {
			if d > td[i] {
				return false
			}
		}
	}
	for k, n := range p.edges {
		if n > t.edges[k] {
			return false
		}
	}
	return true
}

// Prefilter holds one Summary per graph of a database, computed once,
// so repeated support queries against the same database pay the digest
// cost a single time. The zero value is unusable; construct with
// NewPrefilter. A Prefilter is safe for concurrent use.
type Prefilter struct {
	db   []*graph.Graph
	sums []*Summary

	// rejects/passes count prefilter outcomes; nil (no-op) until Meter.
	rejects *obs.Counter
	passes  *obs.Counter
}

// NewPrefilter summarizes every graph in db. The Prefilter keeps the
// slice (not copies of the graphs); the database must not be mutated
// while the Prefilter is in use.
func NewPrefilter(db []*graph.Graph) *Prefilter {
	pf := &Prefilter{db: db, sums: make([]*Summary, len(db))}
	for i, g := range db {
		pf.sums[i] = Summarize(g)
	}
	return pf
}

// Meter attaches obs counters for prefilter outcomes under the given
// site label (e.g. "verify", "gindex"). Nil-safe on both
// receiver and registry; returns the receiver for chaining.
func (pf *Prefilter) Meter(reg *obs.Registry, site string) *Prefilter {
	if pf == nil || reg == nil {
		return pf
	}
	pf.rejects = reg.Counter(obs.MPrefilterRejects, "site", site)
	pf.passes = reg.Counter(obs.MPrefilterPasses, "site", site)
	return pf
}

func (pf *Prefilter) record(passed bool) {
	if passed {
		pf.passes.Inc()
	} else {
		pf.rejects.Inc()
	}
}

// Summary returns the precomputed summary of database graph i.
func (pf *Prefilter) Summary(i int) *Summary { return pf.sums[i] }

// SupportCtl counts the graphs containing pattern, as
// isomorph.SupportCtl, but rejects impossible targets on summaries
// before entering VF2. On a non-nil error the count is the lower bound
// over the prefix examined.
func (pf *Prefilter) SupportCtl(pattern *graph.Graph, cp *runctl.Checkpoint) (int, error) {
	ps := Summarize(pattern)
	n := 0
	for i, g := range pf.db {
		if !pf.sums[i].CanContain(ps) {
			pf.record(false)
			continue
		}
		pf.record(true)
		found, err := SubgraphIsomorphicCtl(pattern, g, cp)
		if err != nil {
			return n, err
		}
		if found {
			n++
		}
	}
	return n, nil
}

// SupportingIDs returns, in database order, the indices of graphs
// containing pattern, as isomorph.SupportingIDs with the summary
// reject applied first.
func (pf *Prefilter) SupportingIDs(pattern *graph.Graph) []int {
	ps := Summarize(pattern)
	var ids []int
	for i, g := range pf.db {
		if !pf.sums[i].CanContain(ps) {
			pf.record(false)
			continue
		}
		pf.record(true)
		if SubgraphIsomorphic(pattern, g) {
			ids = append(ids, i)
		}
	}
	return ids
}

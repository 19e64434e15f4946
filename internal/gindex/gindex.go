// Package gindex is a pattern-based graph index in the spirit of GIndex
// (Yan, Yu & Han, SIGMOD 2004) — the application area the paper's §VII
// highlights for mined patterns. A dictionary of subgraph patterns
// (frequent patterns, significant patterns from GraphSig, or both) is
// used as a filter: a query graph's dictionary patterns must occur in
// every answer graph, so intersecting their posting lists yields a small
// candidate set that a final VF2 verification pass confirms.
package gindex

import (
	"sort"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
	"graphsig/internal/gspan"
	"graphsig/internal/isomorph"
)

// Index answers subgraph containment queries ("which database graphs
// contain this query subgraph?") with pattern-filtered verification.
type Index struct {
	db       []*graph.Graph
	patterns []*graph.Graph
	postings [][]int // patterns[i] occurs in db graphs postings[i]
	// pf summarizes db once so dictionary builds and query verification
	// skip VF2 on graphs that provably cannot contain the pattern.
	pf *isomorph.Prefilter
}

// Stats summarizes an index.
type Stats struct {
	Graphs   int
	Patterns int
	// AvgPostingLen is the mean posting-list length: lower means more
	// selective filters.
	AvgPostingLen float64
}

// Build constructs an index over db from a caller-supplied pattern
// dictionary (e.g. GraphSig's significant subgraphs). Duplicate patterns
// (by canonical code) are dropped; patterns with empty posting lists are
// kept (they prune any query that contains them to zero candidates).
func Build(db []*graph.Graph, dictionary []*graph.Graph) *Index {
	ix := &Index{db: db, pf: isomorph.NewPrefilter(db)}
	seen := map[string]bool{}
	for _, p := range dictionary {
		if p.NumEdges() == 0 {
			continue
		}
		key := dfscode.Canonical(p)
		if seen[key] {
			continue
		}
		seen[key] = true
		ix.patterns = append(ix.patterns, p)
		ix.postings = append(ix.postings, ix.pf.SupportingIDs(p))
	}
	return ix
}

// FrequentOptions configures BuildFrequent's dictionary mining.
type FrequentOptions struct {
	// MinSupportPct is the gSpan frequency threshold in percent
	// (default 10).
	MinSupportPct float64
	// MaxPatternEdges bounds dictionary pattern size (default 4).
	MaxPatternEdges int
	// MaxPatterns bounds the dictionary size (default 256), keeping the
	// most size-discriminative (largest) patterns.
	MaxPatterns int
	// DiscriminativeRatio, when in (0, 1), applies GIndex's
	// discriminative-pattern pruning: a pattern enters the dictionary
	// only if its support is at most ratio × the support of every
	// already-admitted sub-pattern — a pattern that barely filters
	// beyond its own fragments is a redundant index entry.
	DiscriminativeRatio float64
}

// BuildFrequent mines a frequent-pattern dictionary with gSpan and
// builds the index, reusing the miner's TID lists as posting lists.
func BuildFrequent(db []*graph.Graph, opt FrequentOptions) *Index {
	if opt.MinSupportPct <= 0 {
		opt.MinSupportPct = 10
	}
	if opt.MaxPatternEdges <= 0 {
		opt.MaxPatternEdges = 4
	}
	if opt.MaxPatterns <= 0 {
		opt.MaxPatterns = 256
	}
	res := gspan.Mine(db, gspan.Options{
		MinSupport: gspan.FromPercent(opt.MinSupportPct, len(db)),
		MaxEdges:   opt.MaxPatternEdges,
	})
	pf := isomorph.NewPrefilter(db)
	patterns := res.Patterns
	if opt.DiscriminativeRatio > 0 && opt.DiscriminativeRatio < 1 {
		patterns = discriminative(patterns, opt.DiscriminativeRatio)
	}
	// Prefer larger patterns: they are the more selective filters.
	sort.Slice(patterns, func(i, j int) bool {
		if len(patterns[i].Code) != len(patterns[j].Code) {
			return len(patterns[i].Code) > len(patterns[j].Code)
		}
		return patterns[i].Support < patterns[j].Support
	})
	if len(patterns) > opt.MaxPatterns {
		patterns = patterns[:opt.MaxPatterns]
	}
	ix := &Index{db: db, pf: pf}
	for _, p := range patterns {
		ix.patterns = append(ix.patterns, p.Code.Graph())
		ix.postings = append(ix.postings, p.GraphIDs)
	}
	return ix
}

// discriminative applies GIndex's size-increasing redundancy pruning:
// walking patterns smallest-first, a pattern is admitted only when its
// support is at most ratio times the support of every admitted
// sub-pattern — otherwise its posting list filters barely better than
// the fragments it contains, and it wastes dictionary space.
func discriminative(patterns []dfscode.Pattern, ratio float64) []dfscode.Pattern {
	sort.Slice(patterns, func(i, j int) bool {
		if len(patterns[i].Code) != len(patterns[j].Code) {
			return len(patterns[i].Code) < len(patterns[j].Code)
		}
		return patterns[i].Support > patterns[j].Support
	})
	var kept []dfscode.Pattern
	var keptGraphs []*graph.Graph
	for _, p := range patterns {
		pg := p.Code.Graph()
		admit := true
		for k, q := range kept {
			if len(q.Code) >= len(p.Code) {
				continue
			}
			if isomorph.SubgraphIsomorphic(keptGraphs[k], pg) &&
				float64(p.Support) > ratio*float64(q.Support) {
				admit = false
				break
			}
		}
		if admit {
			kept = append(kept, p)
			keptGraphs = append(keptGraphs, pg)
		}
	}
	return kept
}

// Stats returns index summary statistics.
func (ix *Index) Stats() Stats {
	s := Stats{Graphs: len(ix.db), Patterns: len(ix.patterns)}
	total := 0
	for _, post := range ix.postings {
		total += len(post)
	}
	if len(ix.postings) > 0 {
		s.AvgPostingLen = float64(total) / float64(len(ix.postings))
	}
	return s
}

// Candidates returns the filtered candidate ids for a query without the
// verification pass: the intersection of the posting lists of every
// dictionary pattern contained in the query. With no matching dictionary
// pattern, every graph is a candidate.
func (ix *Index) Candidates(q *graph.Graph) []int {
	var cand []int
	first := true
	for i, p := range ix.patterns {
		if p.NumNodes() > q.NumNodes() || p.NumEdges() > q.NumEdges() {
			continue
		}
		if !isomorph.SubgraphIsomorphic(p, q) {
			continue
		}
		if first {
			cand = append(cand, ix.postings[i]...)
			first = false
		} else {
			cand = intersectSorted(cand, ix.postings[i])
		}
		if len(cand) == 0 && !first {
			return nil
		}
	}
	if first {
		cand = make([]int, len(ix.db))
		for i := range cand {
			cand[i] = i
		}
	}
	return cand
}

// Query returns, in ascending order, the ids of database graphs
// containing q, verified by subgraph isomorphism. Candidates surviving
// the posting-list intersection still pass through the summary
// prefilter before VF2: a candidate that slipped past the dictionary
// (no selective pattern matched the query) can often be dismissed on
// label histograms alone.
func (ix *Index) Query(q *graph.Graph) []int {
	qs := isomorph.Summarize(q)
	var out []int
	for _, id := range ix.Candidates(q) {
		if ix.pf != nil && !ix.pf.Summary(id).CanContain(qs) {
			continue
		}
		if isomorph.SubgraphIsomorphic(q, ix.db[id]) {
			out = append(out, id)
		}
	}
	return out
}

// ScanQuery answers the same question by brute-force scan; it is the
// correctness oracle and the baseline the index is measured against.
func ScanQuery(db []*graph.Graph, q *graph.Graph) []int {
	return isomorph.SupportingIDs(q, db)
}

func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

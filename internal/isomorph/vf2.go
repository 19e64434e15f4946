// Package isomorph implements labeled (sub)graph isomorphism testing in
// the style of the VF2 algorithm. It is the correctness workhorse behind
// support counting in the miners, pattern containment in the classifiers,
// and maximality filtering in GraphSig's last phase.
//
// All matching is label-aware: a pattern node may only map to a target
// node with an identical label, and a pattern edge to a target edge with
// an identical label. Subgraph isomorphism here means *subgraph
// monomorphism onto a general (not necessarily induced) subgraph*, the
// semantics used by gSpan/FSG support counting: every pattern edge must be
// present in the target, but the target may have extra edges between
// mapped nodes.
//
// The matcher runs directly on the graphs' frozen CSR views: the hot
// loops index flat rowStart/neighbor/edge-label arrays, candidate "used"
// sets are bitsets, and all mutable search state lives in a
// sync.Pool-backed scratch arena reused across calls, so steady-state
// matching performs zero heap allocations. The search-tree shape —
// matching order, anchor choice, candidate iteration order, and the
// per-node checkpoint charge — is byte-identical to the pre-CSR
// implementation preserved in internal/graph/reference, which the
// differential fuzz harness enforces.
package isomorph

import (
	"sync"

	"graphsig/internal/graph"
	"graphsig/internal/runctl"
)

// matchState is one VF2 run's scratch arena: the CSR views of both
// graphs plus every mutable array the search needs. States are pooled
// and fully reset (sized to the current pair, contents reinitialized)
// on acquisition, so a recycled state never leaks a previous search's
// mapping.
type matchState struct {
	p, t graph.CSRView
	// core maps pattern node -> target node (-1 when unmapped). It is
	// also the mapping slice handed to emit, so its element type stays
	// int for API compatibility.
	core []int
	// used marks target nodes already claimed by the mapping, one bit
	// per node.
	used bitset
	// order is the matching order of pattern nodes (connected order).
	// orderKey remembers which pattern it was computed for — the first
	// element of the pattern CSR's RowStart, whose backing array is
	// immutable and unique per frozen graph — so Support-style loops
	// running one pattern against a whole database skip the BFS on
	// every call after the first.
	order    []int32
	orderKey *int32
	// seen/queue are connectedOrder's BFS scratch.
	seen  bitset
	queue []int32
	// limit, if > 0, bounds the number of embeddings enumerated.
	limit int
	count int
	// cp, when non-nil, checkpoints every search-tree node: the run is
	// abandoned (err set) when the shared controller trips. VF2 has no
	// polynomial bound on pathological pattern/target pairs, so every
	// long-running caller should pass one.
	cp  *runctl.Checkpoint
	err error
	// emit receives each complete mapping; return false to stop. A nil
	// emit means existence/count-only mode, which keeps the hottest
	// entry points (SubgraphIsomorphic, CountEmbeddings) free of
	// closure allocations.
	emit func(mapping []int) bool
}

// bitset is a fixed-capacity bit vector over dense node ids.
type bitset []uint64

func (b bitset) set(i int32)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int32)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// grown returns b resized to hold n bits with every bit zero.
func (b bitset) grown(n int) bitset {
	words := (n + 63) / 64
	if cap(b) < words {
		return make(bitset, words)
	}
	b = b[:words]
	for i := range b {
		b[i] = 0
	}
	return b
}

// statePool recycles match states across calls. One Get/Put pair per
// VF2 invocation; a worker hammering Support over a database reuses the
// same arena for every graph, so the steady-state match loop allocates
// nothing.
var statePool = sync.Pool{New: func() any { return new(matchState) }}

// acquireState readies a pooled state for the given pair. It returns
// nil when the search is statically impossible or trivially satisfied
// (np == 0), with the trivial verdict in matched. Callers running under
// a run controller set s.cp before match; the search charges one
// checkpoint step per search-tree node.
func acquireState(pattern, target *graph.Graph, limit int, emit func([]int) bool) (s *matchState, matched bool) {
	np := pattern.NumNodes()
	if np == 0 {
		if emit != nil {
			emit(nil)
		}
		return nil, true
	}
	if np > target.NumNodes() || pattern.NumEdges() > target.NumEdges() {
		return nil, false
	}
	s = statePool.Get().(*matchState)
	s.p, s.t = pattern.CSR(), target.CSR()
	if cap(s.core) < np {
		s.core = make([]int, np)
	}
	s.core = s.core[:np]
	for i := range s.core {
		s.core[i] = -1
	}
	s.used = s.used.grown(target.NumNodes())
	if s.orderKey != &s.p.RowStart[0] {
		s.connectedOrder()
		s.orderKey = &s.p.RowStart[0]
	}
	s.limit = limit
	s.count = 0
	s.cp = nil
	s.err = nil
	s.emit = emit
	return s, false
}

// release returns a state to the pool. Views and callbacks are dropped
// so a pooled state never pins a graph or a caller's closure; the
// scratch arrays stay for reuse.
func (s *matchState) release() {
	s.p, s.t = graph.CSRView{}, graph.CSRView{}
	s.cp = nil
	s.emit = nil
	statePool.Put(s)
}

// SubgraphIsomorphic reports whether pattern occurs in target (labeled
// subgraph monomorphism with injective node mapping).
func SubgraphIsomorphic(pattern, target *graph.Graph) bool {
	found, _ := SubgraphIsomorphicCtl(pattern, target, nil)
	return found
}

// SubgraphIsomorphicCtl is SubgraphIsomorphic under a run-controller
// checkpoint: the search counts one checkpoint step per search-tree
// node and abandons with the stop cause when the controller trips. On a
// non-nil error the boolean is meaningless (the search was cut short,
// not exhausted).
func SubgraphIsomorphicCtl(pattern, target *graph.Graph, cp *runctl.Checkpoint) (bool, error) {
	s, trivial := acquireState(pattern, target, 1, nil)
	if s == nil {
		return trivial, nil
	}
	s.cp = cp
	s.match(0)
	found, err := s.count > 0, s.err
	s.release()
	return found, err
}

// FindEmbedding returns one mapping from pattern nodes to target nodes,
// or nil if none exists. The returned slice is owned by the caller.
func FindEmbedding(pattern, target *graph.Graph) []int {
	var result []int
	enumerate(pattern, target, 1, func(m []int) bool {
		result = append([]int(nil), m...)
		return false
	})
	return result
}

// CountEmbeddings returns the number of distinct embeddings of pattern in
// target, up to max (pass 0 for unbounded). Distinct means distinct
// injective node mappings; automorphic images count separately.
func CountEmbeddings(pattern, target *graph.Graph, max int) int {
	s, trivial := acquireState(pattern, target, max, nil)
	if s == nil {
		if trivial {
			return 1
		}
		return 0
	}
	s.match(0)
	n := s.count
	s.release()
	return n
}

// ForEachEmbedding calls fn with every embedding of pattern in target
// until fn returns false. The mapping slice is reused across calls; copy
// it if retained.
func ForEachEmbedding(pattern, target *graph.Graph, fn func(mapping []int) bool) {
	enumerate(pattern, target, 0, fn)
}

func enumerate(pattern, target *graph.Graph, limit int, emit func([]int) bool) {
	s, _ := acquireState(pattern, target, limit, emit)
	if s == nil {
		return
	}
	s.match(0)
	s.release()
}

// connectedOrder fills s.order with pattern nodes so that each node
// after the first is adjacent to an earlier node when possible (BFS
// over components), which keeps the VF2 frontier connected and pruning
// strong. All scratch comes from the arena.
func (s *matchState) connectedOrder() {
	n := len(s.p.NodeLabels)
	if cap(s.order) < n {
		s.order = make([]int32, 0, n)
	}
	s.order = s.order[:0]
	s.seen = s.seen.grown(n)
	s.queue = s.queue[:0]
	for start := 0; start < n; start++ {
		if s.seen.has(int32(start)) {
			continue
		}
		s.seen.set(int32(start))
		s.queue = append(s.queue, int32(start))
		for len(s.queue) > 0 {
			v := s.queue[0]
			s.queue = s.queue[1:]
			s.order = append(s.order, v)
			for i := s.p.RowStart[v]; i < s.p.RowStart[v+1]; i++ {
				u := s.p.Nbr[i]
				if !s.seen.has(u) {
					s.seen.set(u)
					s.queue = append(s.queue, u)
				}
			}
		}
		s.queue = s.queue[:0]
	}
}

// match extends the mapping with the depth-th pattern node in order.
// It returns false when enumeration should stop entirely.
func (s *matchState) match(depth int) bool {
	if err := s.cp.Step(); err != nil {
		s.err = err
		return false
	}
	if depth == len(s.order) {
		s.count++
		if s.emit != nil && !s.emit(s.core) {
			return false
		}
		return s.limit == 0 || s.count < s.limit
	}
	pv := s.order[depth]
	pl := s.p.NodeLabels[pv]
	pDeg := s.p.RowStart[pv+1] - s.p.RowStart[pv]

	// Candidate targets: neighbors of the first already-mapped pattern
	// neighbor when one exists (cheap frontier restriction), otherwise
	// all unused target nodes. Rows are iterated in place — the CSR is
	// immutable during the search, so no candidate buffer is needed.
	anchor := int32(-1)
	for i := s.p.RowStart[pv]; i < s.p.RowStart[pv+1]; i++ {
		if tv := s.core[s.p.Nbr[i]]; tv >= 0 {
			anchor = int32(tv)
			break
		}
	}
	// The cheap screens (used, node label, degree) run inline in the
	// candidate loops; tryCandidate only pays the call overhead for
	// survivors that reach the edge-feasibility check.
	if anchor >= 0 {
		for i := s.t.RowStart[anchor]; i < s.t.RowStart[anchor+1]; i++ {
			tv := s.t.Nbr[i]
			if s.used.has(tv) || s.t.NodeLabels[tv] != pl || s.t.RowStart[tv+1]-s.t.RowStart[tv] < pDeg {
				continue
			}
			if !s.tryCandidate(pv, tv, depth) {
				return false
			}
		}
	} else {
		for tv := int32(0); tv < int32(len(s.t.NodeLabels)); tv++ {
			if s.used.has(tv) || s.t.NodeLabels[tv] != pl || s.t.RowStart[tv+1]-s.t.RowStart[tv] < pDeg {
				continue
			}
			if !s.tryCandidate(pv, tv, depth) {
				return false
			}
		}
	}
	return true
}

// tryCandidate checks edge feasibility of tv for pattern node pv and
// recurses on success. It returns false when enumeration should stop
// entirely.
func (s *matchState) tryCandidate(pv, tv int32, depth int) bool {
	if !s.feasible(pv, tv) {
		return true
	}
	s.core[pv] = int(tv)
	s.used.set(tv)
	ok := s.match(depth + 1)
	s.core[pv] = -1
	s.used.clear(tv)
	return ok
}

// feasible checks that mapping pv -> tv preserves every pattern edge to
// an already-mapped neighbor, with matching edge labels. The target
// edge lookup is a scan of tv's CSR row — the same cost shape as the
// old adjacency-list scan, on flat arrays.
func (s *matchState) feasible(pv, tv int32) bool {
	for i := s.p.RowStart[pv]; i < s.p.RowStart[pv+1]; i++ {
		tu := s.core[s.p.Nbr[i]]
		if tu < 0 {
			continue
		}
		l := s.p.EdgeLabels[i]
		found := false
		for j := s.t.RowStart[tv]; j < s.t.RowStart[tv+1]; j++ {
			if int(s.t.Nbr[j]) == tu {
				found = s.t.EdgeLabels[j] == l
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Support counts the number of graphs in db that contain pattern. This is
// transaction support: each database graph contributes at most 1.
func Support(pattern *graph.Graph, db []*graph.Graph) int {
	n, _ := SupportCtl(pattern, db, nil)
	return n
}

// SupportCtl is Support under a run-controller checkpoint. On a non-nil
// error the returned count covers only the database prefix examined
// before the controller tripped — a lower bound, not the true support.
func SupportCtl(pattern *graph.Graph, db []*graph.Graph, cp *runctl.Checkpoint) (int, error) {
	n := 0
	for _, g := range db {
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

// SupportingIDs returns, in database order, the indices of graphs in db
// that contain pattern.
func SupportingIDs(pattern *graph.Graph, db []*graph.Graph) []int {
	var ids []int
	for i, g := range db {
		if SubgraphIsomorphic(pattern, g) {
			ids = append(ids, i)
		}
	}
	return ids
}

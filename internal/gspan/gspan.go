// Package gspan implements the gSpan frequent-subgraph miner (Yan & Han,
// ICDM 2002): DFS-code pattern growth with rightmost-path extension,
// projected embedding lists for support counting, and minimum-code
// duplicate pruning. It serves two roles in this repository: the
// exponential baseline of Figs 2, 9 and 11, and (closed-only, returning
// Result.Maximal) the maximal frequent-subgraph step GraphSig runs on
// each candidate set.
//
// Projections use the classical linked PDFS representation: each
// projection stores only the host edge realizing the newest code entry
// plus a pointer to its parent projection, so extending costs O(1) memory
// and the full embedding is reconstructed on demand in O(|code|).
package gspan

import (
	"sort"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// Options configures a mining run. MinSupport is an absolute graph count
// (use FromPercent for a percentage threshold).
type Options struct {
	// MinSupport is the minimum number of database graphs a pattern must
	// occur in. Values < 1 are treated as 1.
	MinSupport int
	// MaxEdges bounds the pattern size in edges (0 = unbounded).
	MaxEdges int
	// Ctl is the shared run controller: cancellation, deadline, and the
	// miner-step budget (one step per search state). The mine checkpoints
	// once per grow() call. A tripped run is flagged Truncated, which
	// mirrors the paper's ">10 hours, did not finish" handling for
	// low-frequency baseline runs.
	Ctl *runctl.Controller
	// ClosedOnly emits only closed patterns: frequent patterns with no
	// one-edge extension preserving their full support set (CloseGraph,
	// Yan & Han KDD 2003). The emitted list equals Closed() applied to
	// the full mine's output, in the same order, and the same key counts
	// fill Result.Maximal. With MaxEdges == 0 the miner also prunes whole
	// DFS subtrees on equivalent occurrences (see grow).
	ClosedOnly bool
}

// FromPercent converts a percentage frequency threshold (e.g. 5.0 for 5%)
// into an absolute support for a database of n graphs, with a floor of 1.
func FromPercent(pct float64, n int) int {
	s := int(pct * float64(n) / 100.0)
	if s < 1 {
		return 1
	}
	return s
}

// Result is the outcome of a mining run.
type Result struct {
	Patterns []dfscode.Pattern
	// Maximal, filled in closed-only mode, lists in emission order the
	// emitted patterns that are maximal frequent subgraphs (Alg 2 line
	// 13): those no one-edge extension key carries to MinSupport graphs
	// (see closureDecide), plus every pattern at the MaxEdges cap. Its
	// entries share their Patterns entries' codes, graphs and TID lists.
	// A pattern is emitted only once its projection walk has finished,
	// so on a truncated mine too every listed pattern is maximal in the
	// full mine.
	Maximal []dfscode.Pattern
	// Truncated reports that the deadline, a budget, or cancellation cut
	// the run short.
	Truncated bool
	// StopReason classifies why a truncated run stopped ("" = complete).
	StopReason runctl.Reason
	// Stats exposes the search effort behind the run.
	Stats Stats
}

// Stats counts the work a mining run performed.
type Stats struct {
	// StatesExplored is the number of grow() calls (pattern states).
	StatesExplored int
	// ExtensionsTried is the number of distinct rightmost extensions
	// evaluated across all states.
	ExtensionsTried int
	// MinimalityRejected counts extensions discarded as non-minimal
	// DFS codes (duplicate search states).
	MinimalityRejected int
}

// projection is one embedding of the current DFS code into a database
// graph, as a linked chain: the host edge realizing the newest code
// entry plus the parent projection for the code prefix.
type projection struct {
	gid int
	// hostFrom -> hostTo is the directed host edge of the newest entry.
	hostFrom, hostTo int
	eid              int
	prev             *projection
}

// embeddingState is a projection unrolled against its code: the host
// node of every DFS index and the set of consumed host edge ids.
type embeddingState struct {
	nodes []int
	used  []int // host edge ids, parallel to code entries
}

// unroll reconstructs the embedding of code realized by p. Buffers are
// reused via the passed state.
func unroll(code dfscode.Code, p *projection, st *embeddingState) {
	n := len(code)
	st.used = st.used[:0]
	st.nodes = st.nodes[:0]
	// Collect the chain newest-first, then walk code order.
	chain := make([]*projection, n)
	for i := n - 1; i >= 0; i-- {
		chain[i] = p
		p = p.prev
	}
	numNodes := code.NumNodes()
	for len(st.nodes) < numNodes {
		st.nodes = append(st.nodes, -1)
	}
	for i, e := range code {
		pr := chain[i]
		st.used = append(st.used, pr.eid)
		if e.Forward() {
			st.nodes[e.I] = pr.hostFrom
			st.nodes[e.J] = pr.hostTo
		}
	}
}

func (st *embeddingState) usedEdge(eid int) bool {
	for _, e := range st.used {
		if e == eid {
			return true
		}
	}
	return false
}

func (st *embeddingState) hostIndex(host int) int {
	for i, n := range st.nodes {
		if n == host {
			return i
		}
	}
	return -1
}

// occAcc accumulates one extension key's occurrences across the current
// state's projection list. Projections arrive grouped by graph id (seeds
// are appended per-gid contiguously and children inherit the grouping),
// so distinct-gid counting needs only the last gid seen; the projection
// ordinal dedups multiple realizations of the same key inside one
// embedding (e.g. two same-labeled pendant neighbors).
type occAcc struct {
	k                   isomorph.ExtKey
	lastGid, gidCount   int
	lastProj, projCount int
}

type miner struct {
	db       []*graph.Graph
	opt      Options
	cp       *runctl.Checkpoint
	patterns []dfscode.Pattern
	maximal  []dfscode.Pattern
	stats    Stats
	stop     bool
	stopWhy  runctl.Reason

	// Closed-only mode scratch, reused across grow() calls: per-key
	// occurrence accounting, extAcc[i] for the key keyIdx numbers i, and
	// the host-node -> pattern-index inverse map for CSR-row extension
	// walks.
	keyIdx       isomorph.KeyIndex
	extAcc       []occAcc
	inv          []int32
	closedPrunes *obs.Counter
	equivHits    *obs.Counter
}

// Mine runs gSpan over db and returns all frequent connected subgraph
// patterns with at least opt.MinSupport supporting graphs.
func Mine(db []*graph.Graph, opt Options) Result {
	if opt.MinSupport < 1 {
		opt.MinSupport = 1
	}
	m := &miner{db: db, opt: opt, cp: opt.Ctl.Checkpoint(runctl.StageGSpan)}
	defer m.cp.Flush()
	if opt.ClosedOnly {
		reg := m.cp.Metrics()
		m.closedPrunes = reg.Counter(obs.MClosedPrunes, "miner", "gspan")
		m.equivHits = reg.Counter(obs.MEquivOccurrences, "miner", "gspan")
	}
	// Un-amortized check up front so an already-expired deadline or
	// canceled context truncates before any work.
	if err := m.cp.Force(); err != nil {
		return Result{Truncated: true, StopReason: runctl.ReasonOf(err)}
	}

	// Frequent seed edges, in DFS-code order.
	type seed struct {
		code dfscode.EdgeCode
		gids map[int]bool
	}
	seeds := make(map[dfscode.EdgeCode]*seed)
	for gid, g := range db {
		for _, e := range g.Edges() {
			lu, lv := g.NodeLabel(e.From), g.NodeLabel(e.To)
			if lu > lv {
				lu, lv = lv, lu
			}
			ec := dfscode.EdgeCode{I: 0, J: 1, LI: lu, LE: e.Label, LJ: lv}
			s, ok := seeds[ec]
			if !ok {
				s = &seed{code: ec, gids: make(map[int]bool)}
				seeds[ec] = s
			}
			s.gids[gid] = true
		}
	}
	var ordered []*seed
	for _, s := range seeds {
		if len(s.gids) >= opt.MinSupport {
			ordered = append(ordered, s)
		}
	}
	sort.Slice(ordered, func(i, j int) bool {
		return dfscode.CompareEdges(ordered[i].code, ordered[j].code) < 0
	})

	for _, s := range ordered {
		if m.stop {
			break
		}
		var projs []*projection
		for gid := range s.gids {
			g := db[gid]
			for eid, e := range g.Edges() {
				for _, dir := range [2][2]int{{e.From, e.To}, {e.To, e.From}} {
					if g.NodeLabel(dir[0]) != s.code.LI || e.Label != s.code.LE || g.NodeLabel(dir[1]) != s.code.LJ {
						continue
					}
					projs = append(projs, &projection{
						gid:      gid,
						hostFrom: dir[0],
						hostTo:   dir[1],
						eid:      eid,
					})
				}
			}
		}
		m.grow(dfscode.Code{s.code}, projs)
	}

	return Result{Patterns: m.patterns, Maximal: m.maximal, Truncated: m.stop, StopReason: m.stopWhy, Stats: m.stats}
}

// record emits the pattern for code with its supporting graph set, and
// lists it as maximal too when maximal is set.
func (m *miner) record(code dfscode.Code, gids map[int]bool, maximal bool) {
	ids := make([]int, 0, len(gids))
	for id := range gids {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	p := dfscode.Pattern{Code: append(dfscode.Code(nil), code...), Support: len(ids), GraphIDs: ids}
	m.patterns = append(m.patterns, p)
	if maximal {
		m.maximal = append(m.maximal, p)
	}
}

// checkpoint consults the shared controller; it flips the stop flag and
// records the reason when the run is cut short.
func (m *miner) checkpoint() bool {
	if err := m.cp.Step(); err != nil {
		m.stop = true
		if se, ok := runctl.AsStop(err); ok {
			m.stopWhy = se.Reason
		}
		return false
	}
	return true
}

// grow records the pattern for code (already minimal) and recursively
// explores its rightmost-path extensions.
//
// In closed-only mode the same projection walk additionally accounts
// every one-edge extension key over all pattern positions (not just the
// rightmost path): a key realized in all supporting graphs witnesses
// the pattern as non-closed, so emission is suppressed. When moreover
// every single embedding extends by the same internal key whose
// endpoints both avoid the rightmost vertex — an equivalent occurrence
// — the whole DFS subtree is abandoned: descendants only ever attach
// backward edges at their current rightmost vertex, which is either
// this state's rightmost vertex or a later-discovered one, so no
// descendant can absorb that key's edge and every descendant inherits
// an equal-support strict super-pattern. Early termination is disabled
// under a MaxEdges cap, where a descendant's witness could lie beyond
// the cap and pruning would change the downstream maximal set.
func (m *miner) grow(code dfscode.Code, projs []*projection) {
	if m.stop {
		return
	}
	m.stats.StatesExplored++
	if !m.checkpoint() {
		return
	}
	gids := make(map[int]bool)
	for _, p := range projs {
		gids[p.gid] = true
	}
	support := len(gids)
	atCap := m.opt.MaxEdges > 0 && len(code) >= m.opt.MaxEdges
	// Patterns at the cap are emitted unconditionally even in closed-only
	// mode, and are maximal there: their closure witnesses may lie beyond
	// the cap, and the contract is that closure filtering drops only
	// patterns whose witness is itself in the (capped) output.
	doClosure := m.opt.ClosedOnly && !atCap
	if !doClosure {
		m.record(code, gids, m.opt.ClosedOnly)
		if atCap {
			return
		}
	}

	rmPath := code.RightmostPath()
	rmv := rmPath[len(rmPath)-1]

	if doClosure {
		m.keyIdx.Reset()
		m.extAcc = m.extAcc[:0]
	}

	// Collect extensions: code entry -> projections realizing it.
	exts := make(map[dfscode.EdgeCode][]*projection)
	var st embeddingState
	for pi, p := range projs {
		gc := m.db[p.gid].CSR()
		unroll(code, p, &st)
		hostRM := st.nodes[rmv]
		// Backward extensions from the rightmost vertex. Host adjacency
		// is walked as raw CSR rows, whose per-entry edge ids replace
		// the old per-graph (u,v)->eid lookup maps.
		for i := gc.RowStart[hostRM]; i < gc.RowStart[hostRM+1]; i++ {
			u, l, eid := int(gc.Nbr[i]), gc.EdgeLabels[i], int(gc.EdgeIDs[i])
			if st.usedEdge(eid) {
				continue
			}
			pIdx := st.hostIndex(u)
			if pIdx < 0 || !onPath(rmPath, pIdx) || pIdx == rmv {
				continue
			}
			ec := dfscode.EdgeCode{I: rmv, J: pIdx, LI: gc.NodeLabels[hostRM], LE: l, LJ: gc.NodeLabels[u]}
			exts[ec] = append(exts[ec], &projection{gid: p.gid, hostFrom: hostRM, hostTo: u, eid: eid, prev: p})
		}
		// Forward extensions from rightmost-path vertices.
		for _, pv := range rmPath {
			hostV := st.nodes[pv]
			for i := gc.RowStart[hostV]; i < gc.RowStart[hostV+1]; i++ {
				u, l, eid := int(gc.Nbr[i]), gc.EdgeLabels[i], int(gc.EdgeIDs[i])
				if st.hostIndex(u) >= 0 {
					continue
				}
				ec := dfscode.EdgeCode{I: pv, J: len(st.nodes), LI: gc.NodeLabels[hostV], LE: l, LJ: gc.NodeLabels[u]}
				exts[ec] = append(exts[ec], &projection{gid: p.gid, hostFrom: hostV, hostTo: u, eid: eid, prev: p})
			}
		}
		if doClosure {
			m.accountOccurrences(gc, code, &st, pi, p.gid)
		}
	}

	if doClosure {
		closed, maximal, prune := m.closureDecide(support, len(projs), rmv)
		if closed {
			m.record(code, gids, maximal)
		} else {
			m.closedPrunes.Inc()
		}
		if prune {
			m.equivHits.Inc()
			return
		}
	}

	// Recurse over frequent, minimal extensions in DFS-code order.
	var order []dfscode.EdgeCode
	for ec := range exts {
		order = append(order, ec)
	}
	sort.Slice(order, func(i, j int) bool { return dfscode.CompareEdges(order[i], order[j]) < 0 })
	for _, ec := range order {
		if m.stop {
			return
		}
		m.stats.ExtensionsTried++
		childProjs := exts[ec]
		sup := make(map[int]bool)
		for _, p := range childProjs {
			sup[p.gid] = true
		}
		if len(sup) < m.opt.MinSupport {
			continue
		}
		child := append(append(dfscode.Code(nil), code...), ec)
		if !dfscode.IsMinimal(child) {
			m.stats.MinimalityRejected++
			continue
		}
		m.grow(child, childProjs)
	}
}

// accountOccurrences folds one projection's extension keys into the
// per-state accumulator. The CSR walk covers every pattern position, so
// a key exists for each distinct one-edge super-pattern realized by
// this embedding; dedup against the projection ordinal collapses
// multiple realizations inside the same embedding, dedup against the
// gid relies on projs being gid-grouped.
func (m *miner) accountOccurrences(gc graph.CSRView, code dfscode.Code, st *embeddingState, pi, gid int) {
	if n := len(gc.NodeLabels); cap(m.inv) < n {
		m.inv = make([]int32, n)
	}
	inv := m.inv[:len(gc.NodeLabels)]
	isomorph.ForEachExtension(gc, st.nodes, inv, code.HasEdge, func(k isomorph.ExtKey, _ int32) {
		i, added := m.keyIdx.Index(k)
		if added {
			m.extAcc = append(m.extAcc, occAcc{k: k, lastGid: gid, gidCount: 1, lastProj: pi, projCount: 1})
			return
		}
		a := &m.extAcc[i]
		if a.lastGid != gid {
			a.lastGid = gid
			a.gidCount++
		}
		if a.lastProj != pi {
			a.lastProj = pi
			a.projCount++
		}
	})
}

// closureDecide evaluates the accumulated keys: the pattern is closed
// iff no key is realized in all supporting graphs (an equal-support
// one-edge super-pattern exists exactly then, and any larger
// equal-support super-pattern implies a one-edge one by monotonicity
// along an edge-addition chain). It is maximal iff no key is realized
// in MinSupport graphs, by the same argument with MinSupport in place
// of its support: a frequent strict super-pattern Q contains a
// connected one-edge extension of the pattern, frequent as Q is and
// realized on the pattern's embeddings, hence one of its keys. prune
// reports an equivalent occurrence justifying subtree termination: an
// internal key realized by every projection whose endpoints both avoid
// the rightmost vertex, sound only without a MaxEdges cap. The keys are
// walked in first-seen order; all three predicates are existential or
// their negations, so no order could change the outcome.
func (m *miner) closureDecide(support, numProjs, rmv int) (closed, maximal, prune bool) {
	closed, maximal = true, true
	for _, a := range m.extAcc {
		if a.gidCount < m.opt.MinSupport {
			continue
		}
		maximal = false
		if a.gidCount != support {
			continue
		}
		closed = false
		if k := a.k; m.opt.MaxEdges == 0 && k.Internal() &&
			int(k.From) != rmv && int(k.To) != rmv && a.projCount == numProjs {
			return false, false, true
		}
	}
	return closed, maximal, false
}

func onPath(path []int, v int) bool {
	for _, p := range path {
		if p == v {
			return true
		}
	}
	return false
}

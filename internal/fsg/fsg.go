// Package fsg implements an apriori-style level-wise frequent-subgraph
// miner in the spirit of FSG (Kuramochi & Karypis, ICDM 2001). Level k
// holds all frequent connected patterns with k edges; level k+1
// candidates are generated by growing each level-k pattern with one edge
// drawn from its supporting graphs, deduplicated by canonical DFS code,
// and counted against the parent's TID list (downward closure).
//
// The paper uses FSG in two roles: the exponential baseline of Figs 2, 9
// and 11, and the maximal frequent-subgraph step GraphSig runs on each
// candidate set (Alg 2 line 13, at fsgFreq = 80%).
//
// Substitution note (see DESIGN.md): candidate generation is one-edge
// extension rather than FSG's core-join. A candidate is generated only
// by its canonical parent — the pattern its minimum DFS code minus the
// last entry describes — through a gSpan-style rightmost-path extension,
// so each candidate is built once and no dedup is needed. The candidate
// *sets* per level are identical to the core-join's, so the level-wise
// cost shape is preserved.
//
// A level pattern is a row, not a graph: its parent's index in the
// previous level, the code entry it appends, its TID list and its
// embedding list. Following parent links spells a pattern's minimum
// code. The code, and the graph built from it, numbered so that node i
// is DFS index i with the edges in code order, are materialized only
// when Mine returns the pattern. The minimality check behind the
// canonical-parent rule runs against a per-parent trace of the parent's
// embeddings into itself, built once and shared by all of the parent's
// keys.
package fsg

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// Options configures a mining run.
type Options struct {
	// MinSupport is the minimum number of supporting graphs (>= 1).
	MinSupport int
	// MaxEdges bounds pattern size in edges (0 = unbounded).
	MaxEdges int
	// Ctl is the shared run controller: cancellation, deadline, and the
	// miner-step budget (one step per candidate examined plus one per
	// stored embedding extended), so a single pathological parent cannot
	// stall a level.
	Ctl *runctl.Controller
	// ClosedOnly emits only closed patterns: frequent patterns with no
	// one-edge extension preserving their full support set (CloseGraph).
	// Every frequent pattern still participates in candidate generation
	// (downward closure needs the full level), only emission is
	// filtered, so the emitted list equals the closed subset of the full
	// mine's output in the same order. The same key lists fill
	// Result.Maximal. Truncated levels are emitted unfiltered: a
	// suppressed pattern's witness might be missing from the partial
	// next level.
	ClosedOnly bool
}

// Result is the outcome of a mining run.
type Result struct {
	Patterns []dfscode.Pattern
	// Maximal, filled in closed-only mode, lists in emission order the
	// emitted patterns that are maximal frequent subgraphs (Alg 2 line
	// 13): those no realized one-edge extension key carries to
	// MinSupport graphs, plus every pattern at the MaxEdges cap. Its
	// entries share their Patterns entries' codes, graphs and TID lists.
	// A truncated mine lists only the levels whose keys were all
	// counted, so every listed pattern is maximal in the full mine.
	Maximal   []dfscode.Pattern
	Truncated bool
	// StopReason classifies why a truncated run stopped ("" = complete).
	StopReason runctl.Reason
	// Levels records the number of frequent patterns per level (1-based
	// edge count), exposing the level-wise profile.
	Levels []int
	// CandidatesGenerated counts distinct candidates across all levels
	// before exact support counting — the apriori cost driver.
	CandidatesGenerated int
}

// Mine runs the level-wise miner over db.
func Mine(db []*graph.Graph, opt Options) Result {
	gr := growerPool.Get().(*grower)
	defer growerPool.Put(gr)
	defer gr.release()
	return gr.mine(db, opt)
}

func (gr *grower) mine(db []*graph.Graph, opt Options) Result {
	if opt.MinSupport < 1 {
		opt.MinSupport = 1
	}
	ctl := opt.Ctl
	cp := ctl.Checkpoint(runctl.StageFSG)
	// Embedding-list maintenance is part of mining: its steps charge the
	// miner pool, keeping Budgets.VF2Nodes a pure verification knob
	// whose trips land at a deterministic point in the pipeline.
	cpEmb := ctl.Checkpoint(runctl.StageFSG)
	closedPrunes := cp.Metrics().Counter(obs.MClosedPrunes, "miner", "fsg")
	gr.db, gr.opt, gr.cp, gr.cpEmb = db, opt, cp, cpEmb
	gr.minChecks = cp.Metrics().Counter(obs.MFSGMinChecks, "miner", "fsg")
	var res Result

	gr.frequentEdges()
	for d := 0; len(gr.levels[d]) > 0; d++ {
		res.Levels = append(res.Levels, len(gr.levels[d]))
		// Patterns at the MaxEdges cap are emitted unconditionally even
		// in closed-only mode, and are maximal: their closure witnesses
		// lie beyond the cap, outside the output the filter is defined
		// against.
		if opt.MaxEdges > 0 && d+1 >= opt.MaxEdges {
			atCap := keep
			if opt.ClosedOnly {
				atCap = maximal
			}
			gr.emit(&res, d, nil, atCap)
			break
		}
		if err := cp.Force(); err != nil {
			gr.emit(&res, d, nil, keep)
			res.Truncated = true
			res.StopReason = runctl.ReasonOf(err)
			break
		}
		verdicts, candidates, err := gr.nextLevel(d)
		res.CandidatesGenerated += candidates
		if err != nil {
			// The current level carries exact TID lists; keep it all —
			// closure and maximality flags may rest on keys not yet
			// counted, so no filtering on the truncation path.
			gr.emit(&res, d, nil, keep)
			res.Truncated = true
			res.StopReason = runctl.ReasonOf(err)
			break
		}
		for _, v := range verdicts {
			if v == drop {
				closedPrunes.Inc()
			}
		}
		gr.emit(&res, d, verdicts, keep)
	}
	return res
}

// verdict is what emit does with one level pattern.
type verdict uint8

const (
	keep    verdict = iota // emit it
	drop                   // a non-closed pattern of a closed-only mine
	maximal                // emit it and list it in Result.Maximal
)

// row is one level pattern: the pattern its parent row describes grown
// by one code entry. Level 1 rows have parent -1 and a single entry.
type row struct {
	parent int32 // index in the previous level
	last   dfscode.EdgeCode
	tids   []int // ascending exact support set
	embs   embList
}

// embList stores a pattern's embeddings across the database in one flat
// arena: embedding i maps pattern node j to host node flat[i*stride+j]
// inside graph gids[i]. Entries are grouped by gid in ascending order,
// which lets every consumer dedup per-graph facts against the previous
// entry instead of allocating per-key sets. Carrying these lists level
// over level is what lets nextLevel grow candidates by walking CSR rows
// instead of re-running subgraph-isomorphism search per level — the
// memory cost is one int per (embedding, pattern node), released when
// the level advances.
type embList struct {
	stride int
	gids   []int
	flat   []int
}

func (e *embList) len() int          { return len(e.gids) }
func (e *embList) nodes(i int) []int { return e.flat[i*e.stride : (i+1)*e.stride] }

// intArena bump-allocates the TID and embedding lists of one level's
// rows. A level's lists die together when the level after next is
// grown, so the grower keeps two arenas and resets the one whose level
// is dead; a reset keeps the newest chunk, and the arena grows to the
// largest level it has held.
type intArena struct{ buf []int }

func (a *intArena) alloc(n int) []int {
	if len(a.buf)+n > cap(a.buf) {
		a.buf = make([]int, 0, max(2*cap(a.buf), n, 1024))
	}
	s := a.buf[len(a.buf) : len(a.buf)+n : len(a.buf)+n]
	a.buf = a.buf[:len(a.buf)+n]
	return s
}

func (a *intArena) reset() { a.buf = a.buf[:0] }

// newRow allocates a row's TID list, a copy of tids, and an empty
// embedding list with room for exactly n embeddings of the given
// stride, in one arena slice.
func newRow(a *intArena, parent int32, last dfscode.EdgeCode, tids []int, stride, n int) row {
	t := len(tids)
	buf := a.alloc(t + n*(stride+1))
	copy(buf, tids)
	return row{
		parent: parent,
		last:   last,
		tids:   buf[:t:t],
		embs:   embList{stride: stride, gids: buf[t : t : t+n], flat: buf[t+n : t+n]},
	}
}

// frequentEdges builds level 1 — all single-edge patterns meeting
// support — together with their full embedding lists (a second cheap
// pass over the edge sets, for frequent labels only). A single-edge
// pattern 0(a)-1(b) has a <= b, which is its minimum code (0,1,a,e,b).
// With a == b it is realized by both orientations of a matching host
// edge, and both are distinct embeddings. The level is in numeric
// (a, e, b) order.
func (gr *grower) frequentEdges() {
	type edgeStat struct {
		tids []int // ascending: graphs are scanned in gid order
		embs int
		row  int // index in the level, -1 while unplaced or infrequent
	}
	byKey := map[[3]graph.Label]*edgeStat{}
	for gid, g := range gr.db {
		for _, e := range g.Edges() {
			lu, lv := g.NodeLabel(e.From), g.NodeLabel(e.To)
			if lu > lv {
				lu, lv = lv, lu
			}
			key := [3]graph.Label{lu, e.Label, lv}
			st, ok := byKey[key]
			if !ok {
				st = &edgeStat{row: -1}
				byKey[key] = st
			}
			st.embs++
			if lu == lv {
				st.embs++
			}
			if n := len(st.tids); n == 0 || st.tids[n-1] != gid {
				st.tids = append(st.tids, gid)
			}
		}
	}
	var keys [][3]graph.Label
	for k, st := range byKey {
		if len(st.tids) >= gr.opt.MinSupport {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		for x := 0; x < 3; x++ {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	level := gr.newLevel()
	for i, k := range keys {
		st := byKey[k]
		st.row = i
		last := dfscode.EdgeCode{I: 0, J: 1, LI: k[0], LE: k[1], LJ: k[2]}
		level = append(level, newRow(&gr.arenas[0], -1, last, st.tids, 2, st.embs))
	}
	gr.levels[0] = level
	for gid, g := range gr.db {
		for _, e := range g.Edges() {
			lu, lv := g.NodeLabel(e.From), g.NodeLabel(e.To)
			a, b := min(lu, lv), max(lu, lv)
			st := byKey[[3]graph.Label{a, e.Label, b}]
			if st.row < 0 {
				continue
			}
			el := &level[st.row].embs
			if lu == a && lv == b {
				el.gids = append(el.gids, gid)
				el.flat = append(el.flat, e.From, e.To)
			}
			if lv == a && lu == b {
				el.gids = append(el.gids, gid)
				el.flat = append(el.flat, e.To, e.From)
			}
		}
	}
}

// grower grows the levels of one mine. Besides the run's inputs it
// holds the level rows and the working memory nextLevel reuses from
// parent to parent, level to level and, through growerPool, mine to
// mine, so a level allocates little beyond what Mine returns.
type grower struct {
	db        []*graph.Graph
	opt       Options
	cp, cpEmb *runctl.Checkpoint
	minChecks *obs.Counter

	// levels[d] holds the patterns with d+1 edges; their TID and
	// embedding lists live in arenas[d%2].
	levels [][]row
	arenas [2]intArena

	inv []int32 // host node -> pattern node, all zero between uses
	// A parent's realized keys in first-seen order; the TID lists keep
	// their capacity from parent to parent.
	keyIdx   map[isomorph.ExtKey]int
	keys     []keyStat
	gens     []generator
	verdicts []verdict
	hasEdge  func(pv, pu int) bool // pattern adjacency of the parent, for Phase 1

	// The parent, as setParent lays it out: its code, node count, node
	// labels (with a slot at n for a pendant's label), the 1-based index
	// of the code entry joining DFS indices a and b at pos[a*n+b] (0 if
	// none), its adjacency rows with one spare slot each (and a row for
	// a pendant node) and its rightmost path.
	pcode    dfscode.Code
	n        int
	labels   []graph.Label
	pos      []int32
	rowStart []int32
	deg      []int32
	halves   []half
	onPath   []bool
	tr       trace
}

// half is one half-edge of an adjacency row in the parent's layout.
type half struct {
	to    int32
	label graph.Label
}

// trace is the parent's self-embedding trace: for each prefix code[:i]
// of its code, every embedding of that prefix into the parent itself,
// which the minimality check of every key of the parent shares. It also
// holds the check's per-key scratch.
type trace struct {
	built bool
	// The embeddings of code[:i] are nodes[start[i]:start[i+1]], k[i]
	// nodes each (DFS index -> parent node), for i = 1..len(code).
	start, k []int
	nodes    []int32
	// The embeddings of the current prefix into the candidate that use
	// the grown edge, and those of the next prefix.
	uses, next []int32
	path       []int  // rightmost path of the current prefix, root first
	onPath     []bool // by DFS index
}

var growerPool = sync.Pool{New: func() any {
	gr := &grower{keyIdx: map[isomorph.ExtKey]int{}}
	gr.hasEdge = func(pv, pu int) bool { return gr.pos[pv*gr.n+pu] != 0 }
	return gr
}}

// release clears every reference the grower holds into the last mine —
// its inputs and every row of every level — and empties the keys,
// keeping its buffers' capacity for the next mine.
func (gr *grower) release() {
	gr.db, gr.opt, gr.cp, gr.cpEmb, gr.minChecks = nil, Options{}, nil, nil, nil
	levels := gr.levels[:cap(gr.levels)]
	for i, lv := range levels {
		clear(lv[:cap(lv)])
		levels[i] = lv[:0]
	}
	gr.levels = levels[:0]
	gr.arenas[0].reset()
	gr.arenas[1].reset()
	clear(gr.keyIdx)
	gr.keys = gr.keys[:0]
	gr.gens = gr.gens[:0]
}

// newLevel appends an empty level to gr.levels and returns its rows,
// reusing a cleared row slice from an earlier mine when there is one.
func (gr *grower) newLevel() []row {
	d := len(gr.levels)
	if d < cap(gr.levels) {
		gr.levels = gr.levels[:d+1]
	} else {
		gr.levels = append(gr.levels, nil)
	}
	return gr.levels[d][:0]
}

// spell appends the minimum code of row i of level d to dst, following
// parent links.
func (gr *grower) spell(dst dfscode.Code, d, i int) dfscode.Code {
	n := len(dst)
	dst = slices.Grow(dst, d+1)[:n+d+1]
	for l, r := d, int32(i); l >= 0; l-- {
		dst[n+l] = gr.levels[l][r].last
		r = gr.levels[l][r].parent
	}
	return dst
}

// emit appends level d's patterns to res.Patterns, each with its
// spelled minimum code and the graph built from it: nodes in DFS-index
// order, edges in code order. verdicts[i] decides row i (nil gives every
// row def): a dropped row is skipped, and a maximal one is listed in
// res.Maximal too. The level's codes share one slab; each pattern's
// code is capped at its own length, so an append to it can never
// overwrite a neighbour.
func (gr *grower) emit(res *Result, d int, verdicts []verdict, def verdict) {
	kept := len(gr.levels[d])
	for _, v := range verdicts {
		if v == drop {
			kept--
		}
	}
	slab := make(dfscode.Code, 0, kept*(d+1))
	for i, r := range gr.levels[d] {
		v := def
		if verdicts != nil {
			v = verdicts[i]
		}
		if v == drop {
			continue
		}
		lo := len(slab)
		slab = gr.spell(slab, d, i)
		code := slab[lo:len(slab):len(slab)]
		p := dfscode.Pattern{Code: code, Graph: code.Graph(), Support: len(r.tids), GraphIDs: slices.Clone(r.tids)}
		res.Patterns = append(res.Patterns, p)
		if v == maximal {
			res.Maximal = append(res.Maximal, p)
		}
	}
}

// keyStat is one extension key realized on a parent.
type keyStat struct {
	k    isomorph.ExtKey
	tids []int // ascending supporting graphs
	embs int   // realizations over the parent's embeddings
}

// generator is a key of the current parent that generates the row at
// index row of the next level.
type generator struct {
	k   isomorph.ExtKey
	row int
}

// nextLevel grows level d into level d+1, returning the parents'
// verdicts (all keep unless ClosedOnly), the number of candidates
// generated, and the controller's stop cause when the level was cut
// short. Level d+1 comes out in the order of its patterns' rendered
// minimum codes.
//
// Candidate TID lists are exact supports, not upper bounds: an
// embedding of parent+key in graph g restricts to an embedding of the
// parent realizing the key, and conversely every realized key extends
// to an embedding of the candidate, so the key's TID list — collected
// over all parent embeddings — is exactly the candidate's support set.
// Level 1 supports are exact by direct counting and the property is
// inherited level over level, which is why no per-candidate VF2
// recount pass exists. A trip inside one parent's walk discards that
// parent's partial keys before they reach the candidate pool, so even
// truncated levels carry exact supports (the fault-injection suite
// recounts them against VF2 ground truth).
//
// Each candidate has one generator, its canonical parent: the pattern
// described by the candidate's minimum code minus its last entry. A
// prefix of a minimum DFS code is the minimum code of the subgraph it
// spans, so that parent is connected and frequent, hence in the level,
// and the last entry is a rightmost-path extension of the parent's
// code: a backward edge from the rightmost vertex to a vertex on the
// rightmost path, or a forward edge from a rightmost-path vertex to a
// new vertex. A key that maps to no such entry is skipped, because its
// candidate's canonical parent generates it; a key that does is checked
// for minimality once, and passes exactly when this parent is the
// canonical parent. A pendant node is numbered next, so the candidate's
// code is the parent's plus that entry.
//
// The same bijection powers the embedding lists: every embedding of
// candidate c extends exactly one embedding of any single generating
// parent (drop the grown edge, or the grown edge plus its pendant
// node), so walking the canonical parent's stored embeddings and
// extending them by c's key yields c's complete, duplicate-free
// embedding list — no isomorphism search anywhere past level 1. Any
// generator would produce the same embedding set, still gid-grouped
// ascending, and every downstream consumer (TID lists, closure flags,
// canonical sort) is order-invariant below that grouping.
//
// The per-parent key lists double as the closure and maximality tests
// (see judge). Every realized key counts there, rightmost or not.
func (gr *grower) nextLevel(d int) ([]verdict, int, error) {
	db, opt, cp, cpEmb := gr.db, gr.opt, gr.cp, gr.cpEmb
	level := gr.levels[d]
	// Level d-1 has been emitted and grown; its lists' arena takes
	// level d+1.
	arena := &gr.arenas[(d+1)%2]
	arena.reset()
	if d > 0 {
		for i := range gr.levels[d-1] {
			r := &gr.levels[d-1][i]
			r.tids, r.embs = nil, embList{}
		}
	}
	next := gr.newLevel()
	verdicts := slices.Grow(gr.verdicts[:0], len(level))[:len(level)]
	clear(verdicts)
	gr.verdicts = verdicts
	var stop error
	var checks int64
	for pidx := range level {
		if stop = cp.Force(); stop != nil {
			break
		}
		p := &level[pidx]
		gr.setParent(gr.spell(gr.pcode[:0], d, pidx))
		// Phase 1: realized extension keys per supporting graph, walked
		// over the stored embedding list. Embeddings are gid-grouped
		// ascending, so each key's TID list stays sorted and dedups
		// against its last entry — no per-key set allocation.
		clear(gr.keyIdx)
		gr.keys = gr.keys[:0]
		embs := &p.embs
		for i := 0; i < embs.len(); i++ {
			if stop = cpEmb.Step(); stop != nil {
				break
			}
			gid := embs.gids[i]
			hc := db[gid].CSR()
			if n := len(hc.NodeLabels); cap(gr.inv) < n {
				gr.inv = make([]int32, n) // zeroed; ForEachExtension restores zeros
			}
			isomorph.ForEachExtension(hc, embs.nodes(i), gr.inv[:len(hc.NodeLabels)], gr.hasEdge, func(k isomorph.ExtKey, _ int32) {
				ki, ok := gr.keyIdx[k]
				if !ok {
					ki = len(gr.keys)
					gr.keyIdx[k] = ki
					if ki < cap(gr.keys) {
						gr.keys = gr.keys[:ki+1]
					} else {
						gr.keys = append(gr.keys, keyStat{})
					}
					gr.keys[ki] = keyStat{k: k, tids: gr.keys[ki].tids[:0]}
				}
				ks := &gr.keys[ki]
				ks.embs++
				if n := len(ks.tids); n == 0 || ks.tids[n-1] != gid {
					ks.tids = append(ks.tids, gid)
				}
			})
		}
		if stop != nil {
			break
		}
		if opt.ClosedOnly {
			verdicts[pidx] = gr.judge(len(p.tids))
		}
		// Phase 2: each frequent key that is a rightmost-path extension
		// of the parent's code gets one minimality check against the
		// parent's trace; a pass makes a new row.
		gr.gens = gr.gens[:0]
		for _, ks := range gr.keys {
			k := ks.k
			if len(ks.tids) < opt.MinSupport {
				continue
			}
			if stop = cp.Step(); stop != nil {
				break
			}
			e, checked, minimal := gr.checkKey(k)
			if checked {
				checks++
			}
			if !minimal {
				continue
			}
			stride := embs.stride
			if !k.Internal() {
				stride++
			}
			next = append(next, newRow(arena, int32(pidx), e, ks.tids, stride, ks.embs))
			gr.gens = append(gr.gens, generator{k: k, row: len(next) - 1})
		}
		if stop != nil {
			break
		}
		// Phase 3: materialize embedding lists for the candidates this
		// parent generates, one extended embedding per (stored embedding,
		// realization) of a generating key. A full extension walk is not
		// needed here — each key is probed directly: an internal key by
		// one edge-label lookup between its mapped endpoints, a pendant
		// key by one CSR row scan of its attachment node (the fresh
		// neighbor must be unmapped, checked against the small node
		// slice). Internal keys keep the node set; pendant keys append
		// the fresh host node.
		if len(gr.gens) == 0 {
			continue
		}
		for i := 0; i < embs.len(); i++ {
			gid := embs.gids[i]
			host := db[gid]
			hc := host.CSR()
			nodes := embs.nodes(i)
			for _, gen := range gr.gens {
				k, c := gen.k, &next[gen.row].embs
				if k.Internal() {
					if host.EdgeLabel(nodes[k.From], nodes[k.To]) != k.Label {
						continue
					}
					c.gids = append(c.gids, gid)
					c.flat = append(c.flat, nodes...)
					continue
				}
				hv := nodes[k.From]
				pl := k.PendantLabel()
				for ri := hc.RowStart[hv]; ri < hc.RowStart[hv+1]; ri++ {
					hu := hc.Nbr[ri]
					if hc.EdgeLabels[ri] != k.Label || hc.NodeLabels[hu] != pl || mapsHost(nodes, int(hu)) {
						continue
					}
					c.gids = append(c.gids, gid)
					c.flat = append(c.flat, nodes...)
					c.flat = append(c.flat, int(hu))
				}
			}
		}
	}
	gr.levels[d+1] = next
	gr.minChecks.Add(checks)

	if stop != nil {
		// A trip mid-level leaves the next level holding whichever keys
		// phase 2 reached first. The caller keeps the current level
		// (exactly counted), drops this one and reports truncation.
		return verdicts, len(next), stop
	}
	// Rows arrive grouped by parent, so sorting by (parent's rank, last
	// entry) sorts by rendered code: same-length renderings of distinct
	// parent codes differ before either ends. Level 1 is in numeric
	// order, so level 2 ranks its parents by their rendered codes; every
	// later level is in rendered order already.
	rank := gr.renderedRanks(d)
	slices.SortFunc(next, func(a, b row) int {
		if a.parent != b.parent {
			if rank != nil {
				return cmp.Compare(rank[a.parent], rank[b.parent])
			}
			return cmp.Compare(a.parent, b.parent)
		}
		return dfscode.CompareRendered(a.last, b.last)
	})
	return verdicts, len(next), nil
}

// judge decides a closed-only mine's verdict on the current parent, of
// the given support, from its realized keys, free on the side of
// candidate generation. A key realized in every supporting graph
// witnesses an equal-support one-edge super-pattern, so the parent is
// not closed. A key realized in MinSupport graphs witnesses a frequent
// one, so the parent is not maximal. With neither, it is maximal: a
// frequent strict super-pattern Q of the parent would contain a
// connected one-edge extension of it inside Q, frequent as Q is and
// realized on the parent's embeddings, hence one of its keys. This is
// the closure flag with MinSupport in place of the parent's support.
func (gr *grower) judge(support int) verdict {
	v := maximal
	for _, ks := range gr.keys {
		switch {
		case len(ks.tids) == support:
			return drop
		case len(ks.tids) >= gr.opt.MinSupport:
			v = keep
		}
	}
	return v
}

// renderedRanks returns level d's rank of each row in the order of the
// rows' rendered codes, or nil when the level is in that order already,
// which every level but the first is.
func (gr *grower) renderedRanks(d int) []int32 {
	if d > 0 {
		return nil
	}
	level := gr.levels[0]
	order := make([]int32, len(level))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return dfscode.CompareRendered(level[a].last, level[b].last) })
	rank := make([]int32, len(level))
	for r, i := range order {
		rank[i] = int32(r)
	}
	return rank
}

// setParent lays out the parent whose minimum code is code for
// Phase 1's adjacency test and Phase 2's checks: node labels, entry
// index by DFS-index pair, adjacency rows and rightmost path. code is
// kept until the next call. The parent's trace is built lazily, by the
// first key that needs it.
func (gr *grower) setParent(code dfscode.Code) {
	gr.pcode = code
	n := 1
	for _, e := range code {
		if e.Forward() {
			n++
		}
	}
	gr.n = n
	gr.labels = slices.Grow(gr.labels[:0], n+1)[:n+1]
	gr.labels[0] = code[0].LI
	gr.pos = slices.Grow(gr.pos[:0], n*n)[:n*n]
	clear(gr.pos)
	gr.deg = slices.Grow(gr.deg[:0], n+1)[:n+1]
	clear(gr.deg)
	for j, e := range code {
		if e.Forward() {
			gr.labels[e.J] = e.LJ
		}
		gr.pos[e.I*n+e.J], gr.pos[e.J*n+e.I] = int32(j+1), int32(j+1)
		gr.deg[e.I]++
		gr.deg[e.J]++
	}
	// Row v holds deg[v] halves and one spare slot, which the check
	// fills with the grown edge's half when v is one of its ends; the
	// spare row n is a pendant node's.
	gr.rowStart = slices.Grow(gr.rowStart[:0], n+1)[:n+1]
	var at int32
	for v := 0; v <= n; v++ {
		gr.rowStart[v] = at
		at += gr.deg[v] + 1
	}
	gr.halves = slices.Grow(gr.halves[:0], int(at))[:at]
	clear(gr.deg)
	for _, e := range code {
		gr.addHalf(int32(e.I), int32(e.J), e.LE)
		gr.addHalf(int32(e.J), int32(e.I), e.LE)
	}
	// The DFS parent of a vertex is the source of the forward entry
	// discovering it, which precedes every entry discovering a
	// descendant, so one backward pass from the rightmost vertex climbs
	// the whole path.
	gr.onPath = slices.Grow(gr.onPath[:0], n)[:n]
	clear(gr.onPath)
	v := n - 1
	gr.onPath[v] = true
	for i := len(code) - 1; i >= 0; i-- {
		if e := code[i]; e.Forward() && e.J == v {
			v = e.I
			gr.onPath[v] = true
		}
	}
	gr.tr.built = false
}

func (gr *grower) addHalf(v, to int32, l graph.Label) {
	gr.halves[gr.rowStart[v]+gr.deg[v]] = half{to: to, label: l}
	gr.deg[v]++
}

// row returns node v's adjacency row in the current layout.
func (gr *grower) row(v int32) []half {
	return gr.halves[gr.rowStart[v] : gr.rowStart[v]+gr.deg[v]]
}

// checkKey runs Phase 2's test for key k on the parent set by
// setParent: it maps k to the code entry growing the parent's code by k
// appends, and reports whether that entry is a rightmost-path
// extension (and so was checked) and whether the grown code is
// minimal.
func (gr *grower) checkKey(k isomorph.ExtKey) (e dfscode.EdgeCode, checked, minimal bool) {
	e, ok := gr.rightmostEntry(k)
	if !ok {
		return e, false, false
	}
	return e, true, gr.minimal(e)
}

// rightmostEntry maps key k on the parent to the DFS code entry that
// growing its minimum code by k appends, and reports whether that entry
// is a rightmost-path extension: a backward edge from the rightmost
// vertex to a vertex on the rightmost path, or a forward edge from a
// vertex on it to the new vertex. Internal keys have From < To, so only
// To can be the rightmost vertex.
func (gr *grower) rightmostEntry(k isomorph.ExtKey) (dfscode.EdgeCode, bool) {
	rm, from := gr.n-1, int(k.From)
	switch {
	case !gr.onPath[from]:
		return dfscode.EdgeCode{}, false
	case !k.Internal():
		return dfscode.EdgeCode{I: from, J: rm + 1, LI: gr.labels[from], LE: k.Label, LJ: k.PendantLabel()}, true
	case int(k.To) != rm:
		return dfscode.EdgeCode{}, false
	}
	return dfscode.EdgeCode{I: rm, J: from, LI: gr.labels[rm], LE: k.Label, LJ: gr.labels[from]}, true
}

// minimal reports whether the parent's code grown by the rightmost
// entry e is the minimum DFS code of the candidate c it describes. The
// builder behind dfscode.MinimumCode would extend, step by step, every
// embedding of the code's prefix into c and fail at the first step
// whose smallest extension sorts below the code's entry. The
// embeddings of a prefix into c split into those avoiding e, which are
// exactly the trace's embeddings into the parent, and those using e.
// The parent's code is minimal, so the smallest extension of a trace
// embedding that stays inside the parent is exactly the parent's entry;
// only the one extension e gives a trace embedding needs a probe, and
// only the few embeddings using e are extended in full.
func (gr *grower) minimal(e dfscode.EdgeCode) bool {
	code, tr := gr.pcode, &gr.tr
	// Step 0: the first entry is the smallest oriented label triple of
	// any edge; the parent's edges give code[0].
	fwd := dfscode.EdgeCode{I: 0, J: 1, LI: e.LI, LE: e.LE, LJ: e.LJ}
	rev := dfscode.EdgeCode{I: 0, J: 1, LI: e.LJ, LE: e.LE, LJ: e.LI}
	cf, cr := dfscode.CompareEdges(fwd, code[0]), dfscode.CompareEdges(rev, code[0])
	if cf < 0 || cr < 0 {
		return false
	}
	if !tr.built {
		gr.buildTrace()
	}
	// Lay the grown edge into the spare slots of its ends' rows.
	a, b := int32(e.I), int32(e.J)
	if e.Forward() {
		gr.labels[b] = e.LJ
	}
	gr.addHalf(a, b, e.LE)
	gr.addHalf(b, a, e.LE)
	ok := gr.traceCheck(e, cf == 0, cr == 0)
	gr.deg[a]--
	gr.deg[b]--
	return ok
}

// traceCheck runs steps 1..len(code) of minimal over the candidate's
// layout; fwd and rev report whether e's two orientations equal the
// code's first entry.
func (gr *grower) traceCheck(e dfscode.EdgeCode, fwd, rev bool) bool {
	code, tr, n := gr.pcode, &gr.tr, gr.n
	a, b := int32(e.I), int32(e.J)
	tr.uses = tr.uses[:0]
	if fwd {
		tr.uses = append(tr.uses, a, b)
	}
	if rev {
		tr.uses = append(tr.uses, b, a)
	}
	path := append(tr.path[:0], 0, 1)
	onPath := slices.Grow(tr.onPath[:0], n+1)[:n+1]
	clear(onPath)
	onPath[0], onPath[1] = true, true
	tr.path, tr.onPath = path, onPath
	m := len(code)
	for i := 1; i <= m; i++ {
		ref := e
		if i < m {
			ref = code[i]
		}
		k := tr.k[i]
		rmv := path[len(path)-1]
		tr.next = tr.next[:0]
		// Trace embeddings: the one extension e gives each, if any.
		for f := tr.start[i]; f < tr.start[i+1]; f += k {
			emb := tr.nodes[f : f+k]
			ia, ib := indexOf(emb, a), indexOf(emb, b)
			to := int32(-1) // the node a forward extension discovers
			var x dfscode.EdgeCode
			switch {
			case ia == rmv && ib >= 0 && onPath[ib]:
				x = dfscode.EdgeCode{I: rmv, J: ib, LI: e.LI, LE: e.LE, LJ: e.LJ}
			case ib == rmv && ia >= 0 && onPath[ia]:
				x = dfscode.EdgeCode{I: rmv, J: ia, LI: e.LJ, LE: e.LE, LJ: e.LI}
			case ia >= 0 && ib < 0 && onPath[ia]:
				x, to = dfscode.EdgeCode{I: ia, J: k, LI: e.LI, LE: e.LE, LJ: e.LJ}, b
			case ib >= 0 && ia < 0 && onPath[ib]:
				x, to = dfscode.EdgeCode{I: ib, J: k, LI: e.LJ, LE: e.LE, LJ: e.LI}, a
			default:
				continue
			}
			switch dfscode.CompareEdges(x, ref) {
			case -1:
				return false
			case 0:
				tr.next = append(tr.next, emb...)
				if to >= 0 {
					tr.next = append(tr.next, to)
				}
			}
		}
		// Embeddings using e: every extension. A backward one runs from
		// the rightmost vertex to a path vertex over an edge the prefix
		// leaves unused; a forward one from a path vertex to an unmapped
		// node.
		for u := 0; u < len(tr.uses); u += k {
			emb := tr.uses[u : u+k]
			h := emb[rmv]
			for _, hf := range gr.row(h) {
				j := indexOf(emb, hf.to)
				if j < 0 || !onPath[j] {
					continue
				}
				if p := gr.pos[rmv*n+j]; p != 0 && int(p) <= i {
					continue
				}
				x := dfscode.EdgeCode{I: rmv, J: j, LI: gr.labels[h], LE: hf.label, LJ: gr.labels[hf.to]}
				switch dfscode.CompareEdges(x, ref) {
				case -1:
					return false
				case 0:
					tr.next = append(tr.next, emb...)
				}
			}
			for _, pv := range path {
				h := emb[pv]
				for _, hf := range gr.row(h) {
					if indexOf(emb, hf.to) >= 0 {
						continue
					}
					x := dfscode.EdgeCode{I: pv, J: k, LI: gr.labels[h], LE: hf.label, LJ: gr.labels[hf.to]}
					switch dfscode.CompareEdges(x, ref) {
					case -1:
						return false
					case 0:
						tr.next = append(tr.next, emb...)
						tr.next = append(tr.next, hf.to)
					}
				}
			}
		}
		tr.uses, tr.next = tr.next, tr.uses
		// A forward entry from path vertex I makes its new vertex J the
		// rightmost one: the path is cut below I and J appended.
		if ref.Forward() {
			for path[len(path)-1] != ref.I {
				onPath[path[len(path)-1]] = false
				path = path[:len(path)-1]
			}
			path = append(path, ref.J)
			onPath[ref.J] = true
			tr.path = path
		}
	}
	return true
}

// buildTrace fills the parent's trace: the embeddings of code[:1] are
// the orientations of its edges matching code[0], and those of
// code[:i+1] extend those of code[:i] by code[i] inside the parent. A
// backward entry's edge is never used by the prefix (the code's edges
// are distinct), so it extends an embedding exactly when the parent has
// that edge with that label.
func (gr *grower) buildTrace() {
	code, tr, n := gr.pcode, &gr.tr, gr.n
	tr.built = true
	tr.nodes = tr.nodes[:0]
	tr.start = append(tr.start[:0], 0, 0)
	tr.k = append(tr.k[:0], 0, 2)
	c0 := code[0]
	for _, ec := range code {
		if ec.LE != c0.LE {
			continue
		}
		if gr.labels[ec.I] == c0.LI && gr.labels[ec.J] == c0.LJ {
			tr.nodes = append(tr.nodes, int32(ec.I), int32(ec.J))
		}
		if gr.labels[ec.J] == c0.LI && gr.labels[ec.I] == c0.LJ {
			tr.nodes = append(tr.nodes, int32(ec.J), int32(ec.I))
		}
	}
	tr.start = append(tr.start, len(tr.nodes))
	for i := 1; i < len(code); i++ {
		ec, k := code[i], tr.k[i]
		for f := tr.start[i]; f < tr.start[i+1]; f += k {
			hv := tr.nodes[f+ec.I]
			if !ec.Forward() {
				hu := tr.nodes[f+ec.J]
				if p := gr.pos[int(hv)*n+int(hu)]; p != 0 && code[p-1].LE == ec.LE {
					tr.nodes = append(tr.nodes, tr.nodes[f:f+k]...)
				}
				continue
			}
			for _, hf := range gr.row(hv) {
				if hf.label != ec.LE || gr.labels[hf.to] != ec.LJ || indexOf(tr.nodes[f:f+k], hf.to) >= 0 {
					continue
				}
				tr.nodes = append(tr.nodes, tr.nodes[f:f+k]...)
				tr.nodes = append(tr.nodes, hf.to)
			}
		}
		if ec.Forward() {
			k++
		}
		tr.k = append(tr.k, k)
		tr.start = append(tr.start, len(tr.nodes))
	}
}

// indexOf returns the DFS index an embedding maps to node v, or -1.
func indexOf(emb []int32, v int32) int {
	for i, u := range emb {
		if u == v {
			return i
		}
	}
	return -1
}

// mapsHost reports whether the embedding's node slice already maps some
// pattern node to host node hu. Patterns are small, so the linear scan
// beats maintaining an inverse table across phase 3.
func mapsHost(nodes []int, hu int) bool {
	for _, hv := range nodes {
		if hv == hu {
			return true
		}
	}
	return false
}

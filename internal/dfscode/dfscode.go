// Package dfscode implements gSpan-style DFS codes for connected labeled
// graphs: the edge-tuple encoding, the total order on codes, minimum
// (canonical) code construction, and the minimality check used by gSpan's
// duplicate pruning. The minimum code doubles as the canonical label used
// across the repository to deduplicate mined patterns.
//
// A DFS code is a sequence of edge tuples (i, j, li, le, lj) where i and j
// are DFS discovery indices: a forward edge has j = i's frontier + 1 and
// discovers vertex j, a backward edge has j < i and closes a cycle. The
// minimum code over all DFS traversals is a canonical form: two connected
// labeled graphs are isomorphic iff their minimum codes are equal.
package dfscode

import (
	"bytes"
	"fmt"
	"strconv"
	"sync"

	"graphsig/internal/graph"
)

// EdgeCode is one DFS code entry: edge between discovery indices I and J
// with node labels LI, LJ and edge label LE.
type EdgeCode struct {
	I, J   int
	LI, LE graph.Label
	LJ     graph.Label
}

// Forward reports whether the entry is a forward (vertex-discovering) edge.
func (e EdgeCode) Forward() bool { return e.I < e.J }

// Code is a DFS code: an ordered list of edge entries.
type Code []EdgeCode

// Pattern is a mined frequent subgraph, as both miners emit it. Code is
// its minimum DFS code and its whole identity; a caller that needs the
// pattern as a graph builds it with Code.Graph().
type Pattern struct {
	Code     Code
	Support  int   // number of supporting database graphs
	GraphIDs []int // ascending supporting database indices
}

// CompareEdges orders two code entries by gSpan's DFS lexicographic order
// (structure first, then labels). It returns -1, 0 or +1.
func CompareEdges(a, b EdgeCode) int {
	if a.I == b.I && a.J == b.J {
		return compareLabels(a, b)
	}
	if edgeLess(a, b) {
		return -1
	}
	return 1
}

func compareLabels(a, b EdgeCode) int {
	switch {
	case a.LI != b.LI:
		return cmpLabel(a.LI, b.LI)
	case a.LE != b.LE:
		return cmpLabel(a.LE, b.LE)
	case a.LJ != b.LJ:
		return cmpLabel(a.LJ, b.LJ)
	}
	return 0
}

func cmpLabel(a, b graph.Label) int {
	if a < b {
		return -1
	}
	if a > b {
		return 1
	}
	return 0
}

// edgeLess implements the structural part of gSpan's edge order for
// entries with distinct (I, J).
func edgeLess(a, b EdgeCode) bool {
	af, bf := a.Forward(), b.Forward()
	switch {
	case af && bf:
		return a.J < b.J || (a.J == b.J && a.I > b.I)
	case !af && !bf:
		return a.I < b.I || (a.I == b.I && a.J < b.J)
	case !af && bf: // a backward, b forward
		return a.I < b.J
	default: // a forward, b backward
		return a.J <= b.I
	}
}

// NumNodes returns the number of vertices the code describes.
func (c Code) NumNodes() int {
	max := -1
	for _, e := range c {
		if e.I > max {
			max = e.I
		}
		if e.J > max {
			max = e.J
		}
	}
	return max + 1
}

// Graph materializes the code as a graph: node i is DFS index i and the
// edges are in code order. It panics on malformed codes (an entry
// referencing an undiscovered vertex, or a repeated edge).
func (c Code) Graph() *graph.Graph {
	labels := make([]graph.Label, 0, len(c)+1)
	edges := make([]graph.Edge, len(c))
	for i, e := range c {
		if e.Forward() && len(labels) == 0 {
			if e.I != 0 || e.J != 1 {
				panic("dfscode: first entry must be forward edge (0,1)")
			}
			labels = append(labels, e.LI)
		}
		if e.I >= len(labels) {
			panic("dfscode: edge from undiscovered vertex")
		}
		if e.Forward() {
			if e.J != len(labels) {
				panic(fmt.Sprintf("dfscode: forward edge discovers vertex %d, frontier is %d", e.J, len(labels)))
			}
			labels = append(labels, e.LJ)
		}
		edges[i] = graph.Edge{From: e.I, To: e.J, Label: e.LE}
	}
	g, err := graph.FromEdges(labels, edges)
	if err != nil {
		panic(fmt.Sprintf("dfscode: %v", err))
	}
	return g
}

// HasEdge reports whether the code contains an edge between DFS indices
// i and j, in either orientation. It is the pattern-adjacency oracle
// for closure checks that walk host CSR rows without materializing the
// pattern graph; codes are small, so the linear scan is the fast path.
func (c Code) HasEdge(i, j int) bool {
	for _, e := range c {
		if (e.I == i && e.J == j) || (e.I == j && e.J == i) {
			return true
		}
	}
	return false
}

// RightmostPath returns the DFS indices on the rightmost path, from the
// root (index 0) to the rightmost (most recently discovered) vertex.
func (c Code) RightmostPath() []int {
	if len(c) == 0 {
		return nil
	}
	// Walk forward edges backwards from the rightmost vertex. Parents
	// live in a dense slice indexed by DFS index (-1 = root).
	rm := -1
	for _, e := range c {
		if e.Forward() && e.J > rm {
			rm = e.J
		}
	}
	parent := make([]int, rm+1)
	for i := range parent {
		parent[i] = -1
	}
	for _, e := range c {
		if e.Forward() {
			parent[e.J] = e.I
		}
	}
	rev := make([]int, 0, rm+1)
	for v := rm; v >= 0; v = parent[v] {
		rev = append(rev, v)
	}
	// Reverse into root-first order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// String renders the code compactly, e.g. "(0,1,C,-,O)(1,2,O,=,C)" with
// numeric labels. The rendering doubles as the canonical pattern key.
func (c Code) String() string {
	var buf [512]byte // on the stack: a typical pattern renders in one copy
	return string(appendString(buf[:0], c))
}

// appendString appends String's rendering of c to dst. It is built with
// strconv appends rather than fmt because canonicalization sits on the
// miners' candidate-dedup hot path.
func appendString(dst []byte, c Code) []byte {
	for _, e := range c {
		dst = append(dst, '(')
		dst = strconv.AppendInt(dst, int64(e.I), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(e.J), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(e.LI), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(e.LE), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(e.LJ), 10)
		dst = append(dst, ')')
	}
	return dst
}

// CompareRendered orders two code entries the way strings.Compare
// orders their String renderings: field by field, each field by its
// decimal digits, so 10 sorts before 9. A field that is a proper prefix
// of the other sorts first, as the separator after it sorts below every
// digit.
func CompareRendered(a, b EdgeCode) int {
	for _, f := range [5][2]int{{a.I, b.I}, {a.J, b.J}, {int(a.LI), int(b.LI)}, {int(a.LE), int(b.LE)}, {int(a.LJ), int(b.LJ)}} {
		if f[0] != f[1] {
			var x, y [20]byte
			return bytes.Compare(strconv.AppendInt(x[:0], int64(f[0]), 10), strconv.AppendInt(y[:0], int64(f[1]), 10))
		}
	}
	return 0
}

// embedding maps DFS indices of a partial code to nodes of a host graph.
type embedding struct {
	nodes []int // DFS index -> host node
	used  []bool
	// inverse: host node -> DFS index + 1 (0 = unmapped)
	inverse []int
}

// embArena bump-allocates embedding buffers in large chunks. One
// generation of embeddings dies wholesale when the next replaces it, so
// the builder keeps two arenas and swap-resets the dead one — the
// canonicalizer sits on the miners' candidate-dedup hot path, and
// per-embedding make calls dominated its allocation profile.
type embArena struct {
	structs []embedding
	ints    []int
	bools   []bool
}

func (a *embArena) emb() *embedding {
	if len(a.structs) == cap(a.structs) {
		a.structs = make([]embedding, 0, grown(cap(a.structs), 1, 16))
	}
	a.structs = a.structs[:len(a.structs)+1]
	return &a.structs[len(a.structs)-1]
}

func (a *embArena) intSlice(n int) []int {
	if len(a.ints)+n > cap(a.ints) {
		a.ints = make([]int, 0, grown(cap(a.ints), n, 128))
	}
	s := a.ints[len(a.ints) : len(a.ints)+n : len(a.ints)+n]
	a.ints = a.ints[:len(a.ints)+n]
	return s
}

func (a *embArena) boolSlice(n int) []bool {
	if len(a.bools)+n > cap(a.bools) {
		a.bools = make([]bool, 0, grown(cap(a.bools), n, 128))
	}
	s := a.bools[len(a.bools) : len(a.bools)+n : len(a.bools)+n]
	a.bools = a.bools[:len(a.bools)+n]
	return s
}

// reset abandons the arena's contents; chunks superseded by growth are
// left to the collector, the newest one is reused.
func (a *embArena) reset() {
	a.structs = a.structs[:0]
	a.ints = a.ints[:0]
	a.bools = a.bools[:0]
}

// grown doubles a chunk capacity, bounded below by the requested count
// and a type-specific floor sized for typical pattern graphs.
func grown(c, n, floor int) int {
	c *= 2
	if c < n {
		c = n
	}
	if c < floor {
		c = floor
	}
	return c
}

// minState is the minimum-code builder's working set: the two embedding
// arenas and generation slices, the code under construction, its
// rightmost path and a rendering buffer. It is kept across calls in a
// pool, so canonicalizing a stream of graphs settles into zero
// steady-state allocation.
type minState struct {
	arenas     [2]embArena
	embs, next []*embedding
	code       Code
	path       []int // rightmost path of code, root first
	buf        []byte
}

var minPool = sync.Pool{New: func() any { return new(minState) }}

// extend clones e into arena a with hostTo appended when the chosen
// extension discovers a new vertex, and edgeID marked used. Every
// buffer is fully overwritten by the copies, so stale arena contents
// never leak through.
func (e *embedding) extend(hostTo int, discovers bool, edgeID int, a *embArena) *embedding {
	nn := len(e.nodes)
	if discovers {
		nn++
	}
	buf := a.intSlice(nn + len(e.inverse))
	ne := a.emb()
	ne.nodes = buf[:nn:nn]
	ne.used = a.boolSlice(len(e.used))
	ne.inverse = buf[nn:]
	copy(ne.nodes, e.nodes)
	copy(ne.inverse, e.inverse)
	copy(ne.used, e.used)
	if discovers {
		ne.nodes[nn-1] = hostTo
		ne.inverse[hostTo] = nn
	}
	ne.used[edgeID] = true
	return ne
}

// MinimumCode computes the canonical minimum DFS code of a connected
// labeled graph by greedy minimal extension over all partial embeddings
// (the construction behind gSpan's isMin test). It panics on empty or
// disconnected graphs, for which the code is undefined.
func MinimumCode(g *graph.Graph) Code {
	requireConnected(g)
	st := minPool.Get().(*minState)
	code, _ := st.build(g.CSR(), g.Edges(), nil)
	out := append(make(Code, 0, len(code)), code...)
	minPool.Put(st)
	return out
}

// IsMinimal reports whether c is the minimum DFS code of the graph it
// describes. gSpan uses this to discard duplicate pattern-growth states.
func IsMinimal(c Code) bool {
	if len(c) == 0 {
		return true
	}
	g := c.Graph()
	requireConnected(g)
	st := minPool.Get().(*minState)
	_, minimal := st.build(g.CSR(), g.Edges(), c)
	minPool.Put(st)
	return minimal
}

// Canonical returns a canonical string key for a connected labeled graph:
// equal strings iff isomorphic graphs. Single-vertex graphs are encoded
// by their node label.
func Canonical(g *graph.Graph) string {
	if g.NumNodes() == 1 {
		return "v(" + strconv.Itoa(int(g.NodeLabel(0))) + ")"
	}
	requireConnected(g)
	st := minPool.Get().(*minState)
	code, _ := st.build(g.CSR(), g.Edges(), nil)
	st.buf = appendString(st.buf[:0], code)
	key := string(st.buf)
	minPool.Put(st)
	return key
}

func requireConnected(g *graph.Graph) {
	if g.NumNodes() == 0 || !g.IsConnected() {
		panic("dfscode: minimum code requires a nonempty connected graph")
	}
}

// build constructs the minimum DFS code of the connected graph given by
// its CSR view and edge list into st.code. When reference is non-nil,
// construction stops early as soon as the minimum is known to differ
// from reference, returning (nil, false); if it matches the whole way,
// returns (reference, true). Otherwise the returned code aliases
// st.code and is valid until the next build.
func (st *minState) build(gc graph.CSRView, edges []graph.Edge, reference Code) (Code, bool) {
	code := st.code[:0]
	if len(edges) == 0 {
		// Single vertex: represent as empty code. Callers treat
		// single-node patterns specially.
		return code, len(reference) == 0
	}
	// Two arenas, swapped each round: cur holds the live generation,
	// spare receives its extensions, then the dead generation's arena is
	// reset and reused.
	cur, spare := &st.arenas[0], &st.arenas[1]
	embs, nextEmbs := st.embs[:0], st.next[:0]
	path := append(st.path[:0], 0, 1)

	// Seed: minimal first entry over all directed edge instances.
	nl := gc.NodeLabels
	var best EdgeCode
	for i, e := range edges {
		a := EdgeCode{I: 0, J: 1, LI: nl[e.From], LE: e.Label, LJ: nl[e.To]}
		b := EdgeCode{I: 0, J: 1, LI: nl[e.To], LE: e.Label, LJ: nl[e.From]}
		if compareLabels(b, a) < 0 {
			a = b
		}
		if i == 0 || compareLabels(a, best) < 0 {
			best = a
		}
	}
	if reference != nil && CompareEdges(best, reference[0]) != 0 {
		st.release(embs, nextEmbs, code, path)
		return nil, false
	}
	code = append(code, best)
	for ei, e := range edges {
		for _, dir := range [2][2]int{{e.From, e.To}, {e.To, e.From}} {
			if nl[dir[0]] == best.LI && e.Label == best.LE && nl[dir[1]] == best.LJ {
				buf := cur.intSlice(2 + len(nl))
				emb := cur.emb()
				emb.nodes = buf[:2:2]
				emb.used = cur.boolSlice(len(edges))
				emb.inverse = buf[2:]
				emb.nodes[0], emb.nodes[1] = dir[0], dir[1]
				clear(emb.inverse)
				clear(emb.used)
				emb.inverse[dir[0]] = 1
				emb.inverse[dir[1]] = 2
				emb.used[ei] = true
				embs = append(embs, emb)
			}
		}
	}

	for len(code) < len(edges) {
		rmv := path[len(path)-1]
		found := false
		// Backward extensions: from the rightmost vertex to a vertex on
		// the rightmost path. Every one of them precedes every forward
		// extension in DFS order (its I, the rightmost vertex, is below
		// a forward edge's J, the next vertex), so forward extensions
		// are enumerated only when no embedding has a backward one.
		for _, emb := range embs {
			hostRM := emb.nodes[rmv]
			for i := gc.RowStart[hostRM]; i < gc.RowStart[hostRM+1]; i++ {
				if emb.used[gc.EdgeIDs[i]] {
					continue
				}
				u := gc.Nbr[i]
				pi := emb.inverse[u]
				if pi == 0 || !onPath(path, pi-1) {
					continue
				}
				ec := EdgeCode{I: rmv, J: pi - 1, LI: nl[hostRM], LE: gc.EdgeLabels[i], LJ: nl[u]}
				if !found || CompareEdges(ec, best) < 0 {
					best, found = ec, true
				}
			}
		}
		// Forward extensions: from a rightmost-path vertex to an
		// undiscovered node. All share J, and a deeper source (larger I)
		// precedes a shallower one whatever the labels, so the path is
		// walked from the rightmost vertex up and stops at the first
		// vertex any embedding can extend from.
		for pi := len(path) - 1; !found && pi >= 0; pi-- {
			pv := path[pi]
			for _, emb := range embs {
				hostV := emb.nodes[pv]
				for i := gc.RowStart[hostV]; i < gc.RowStart[hostV+1]; i++ {
					u := gc.Nbr[i]
					if emb.inverse[u] != 0 {
						continue
					}
					ec := EdgeCode{I: pv, J: len(emb.nodes), LI: nl[hostV], LE: gc.EdgeLabels[i], LJ: nl[u]}
					if !found || CompareEdges(ec, best) < 0 {
						best, found = ec, true
					}
				}
			}
		}
		if !found {
			panic("dfscode: no extension for connected graph")
		}
		if reference != nil && CompareEdges(best, reference[len(code)]) != 0 {
			st.release(embs, nextEmbs, code, path)
			return nil, false
		}
		code = append(code, best)
		// Keep only embeddings realizing the chosen extension, extended
		// into the spare arena; the dead generation is then reset and the
		// arenas swap roles.
		next := nextEmbs[:0]
		for _, emb := range embs {
			hostV := emb.nodes[best.I]
			if best.Forward() {
				for i := gc.RowStart[hostV]; i < gc.RowStart[hostV+1]; i++ {
					u := int(gc.Nbr[i])
					if emb.inverse[u] != 0 || gc.EdgeLabels[i] != best.LE || nl[u] != best.LJ {
						continue
					}
					next = append(next, emb.extend(u, true, int(gc.EdgeIDs[i]), spare))
				}
				continue
			}
			hostU := emb.nodes[best.J]
			// One row scan yields the connecting edge's label and id.
			for i := gc.RowStart[hostV]; i < gc.RowStart[hostV+1]; i++ {
				if int(gc.Nbr[i]) != hostU {
					continue
				}
				if !emb.used[gc.EdgeIDs[i]] && gc.EdgeLabels[i] == best.LE {
					next = append(next, emb.extend(hostU, false, int(gc.EdgeIDs[i]), spare))
				}
				break
			}
		}
		embs, nextEmbs = next, embs
		cur.reset()
		cur, spare = spare, cur
		// A forward edge from path vertex I makes its new vertex J the
		// rightmost one: the path is cut below I and J appended.
		if best.Forward() {
			i := len(path) - 1
			for path[i] != best.I {
				i--
			}
			path = append(path[:i+1], best.J)
		}
	}
	st.release(embs, nextEmbs, code, path)
	if reference != nil {
		return reference, true
	}
	return code, true
}

// release hands build's working buffers back to st, emptied but with
// their capacity, for the next call.
func (st *minState) release(embs, next []*embedding, code Code, path []int) {
	st.arenas[0].reset()
	st.arenas[1].reset()
	st.embs, st.next, st.code, st.path = embs[:0], next[:0], code[:0], path[:0]
}

func onPath(path []int, v int) bool {
	for _, p := range path {
		if p == v {
			return true
		}
	}
	return false
}

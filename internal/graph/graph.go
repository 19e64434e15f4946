// Package graph provides the labeled undirected graph type that the whole
// repository is built on: molecules in the chemistry substrate, patterns in
// the miners, and windows cut around nodes by GraphSig.
//
// Graphs are node- and edge-labeled, undirected, and simple (at most one
// edge between a pair of nodes). Node identifiers are dense ints in
// [0, NumNodes). The zero Graph is empty and ready to use.
//
// Internally a graph has two representations. Construction maintains a
// compact half-edge list (per-node singly linked chains through one flat
// array) that makes AddEdge O(degree). Reads go through a frozen
// compressed-sparse-row (CSR) view — flat rowStart/neighbor/edge-label
// arrays — built lazily on first read after a mutation and shared by all
// subsequent readers. The CSR preserves the historical adjacency
// iteration contract exactly: the neighbors of v appear in the order the
// edges incident to v were added. Mining output (CutGraph BFS order, DFS
// codes, window contents) depends on that order, so it is part of the
// representation's correctness contract, enforced by the differential
// tests against internal/graph/reference.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Label identifies a node label (e.g. an atom type) or an edge label
// (e.g. a bond type). Labels are small dense ints managed by an Alphabet.
type Label int

// NoLabel marks an absent label.
const NoLabel Label = -1

// Edge is an undirected labeled edge between nodes From and To.
// Invariant maintained by AddEdge: From < To.
type Edge struct {
	From, To int
	Label    Label
}

// halfRec is one construction-side adjacency entry: the neighbor, the
// edge label, and the index of the node's next half-edge in the shared
// halves array (-1 ends the chain). Chains are push-front: they exist
// only so AddEdge's duplicate check and pre-freeze EdgeLabel lookups
// stay O(degree); ordered iteration always goes through the CSR.
type halfRec struct {
	to    int32
	next  int32
	label Label
}

// Graph is a labeled undirected simple graph. Create with New or the zero
// value; mutate with AddNode/AddEdge.
//
// A Graph is safe for concurrent readers once construction is done;
// mutating concurrently with any other access is not supported. Freeze
// may be called after construction to build the CSR eagerly so that
// concurrent first readers never contend on the lazy build.
type Graph struct {
	// ID is an optional database identifier (index of the graph in its
	// dataset). It is carried through mining so that supports can be
	// reported as graph ID sets.
	ID int

	labels []Label
	edges  []Edge
	deg    []int32
	head   []int32
	halves []halfRec

	// csr holds the frozen read view; nil until the first read after a
	// mutation. Stored through an atomic so concurrent readers can
	// publish/observe the built view without locks: losing a benign
	// build race just stores an identical view twice.
	csr atomic.Pointer[csr]
}

// csr is the frozen compressed-sparse-row adjacency: the half-edges of
// node v occupy rows [rowStart[v], rowStart[v+1]) of the packed arrays,
// in edge-insertion order. eid holds the index into the edge list of
// the edge realizing each half, so miners can map a traversed half back
// to its undirected edge without a hash lookup.
type csr struct {
	rowStart []int32
	nbr      []int32
	lab      []Label
	eid      []int32
}

// CSRView is the exported read-only window onto a graph's frozen CSR
// arrays plus its node labels. All slices are owned by the graph and
// must not be mutated. The half-edges of node v are
// Nbr[RowStart[v]:RowStart[v+1]] with parallel EdgeLabels and EdgeIDs
// (indices into Edges()).
type CSRView struct {
	NodeLabels []Label
	RowStart   []int32
	Nbr        []int32
	EdgeLabels []Label
	EdgeIDs    []int32
}

// New returns an empty graph with capacity hints for n nodes and m edges.
func New(n, m int) *Graph {
	return &Graph{
		labels: make([]Label, 0, n),
		edges:  make([]Edge, 0, m),
		deg:    make([]int32, 0, n),
		head:   make([]int32, 0, n),
		halves: make([]halfRec, 0, 2*m),
	}
}

// Clone returns a deep copy of g. The frozen CSR, when present, is
// shared: it is immutable, and a later mutation of the clone replaces
// only the clone's own view.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		ID:     g.ID,
		labels: append([]Label(nil), g.labels...),
		edges:  append([]Edge(nil), g.edges...),
		deg:    append([]int32(nil), g.deg...),
		head:   append([]int32(nil), g.head...),
		halves: append([]halfRec(nil), g.halves...),
	}
	c.csr.Store(g.csr.Load())
	return c
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.labels) }

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// AddNode appends a node with the given label and returns its id.
func (g *Graph) AddNode(l Label) int {
	g.labels = append(g.labels, l)
	g.deg = append(g.deg, 0)
	g.head = append(g.head, -1)
	g.csr.Store(nil)
	return len(g.labels) - 1
}

// NodeLabel returns the label of node v.
func (g *Graph) NodeLabel(v int) Label { return g.labels[v] }

// AddEdge inserts an undirected edge (u, v) with label l. It panics if u
// or v is out of range or u == v, and reports an error if the edge already
// exists (graphs are simple).
func (g *Graph) AddEdge(u, v int, l Label) error {
	if u == v {
		panic("graph: self loop")
	}
	if u < 0 || u >= len(g.labels) || v < 0 || v >= len(g.labels) {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.labels)))
	}
	if g.scanHalf(u, v) != nil {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	if u > v {
		u, v = v, u
	}
	g.halves = append(g.halves, halfRec{to: int32(v), next: g.head[u], label: l})
	g.head[u] = int32(len(g.halves) - 1)
	g.halves = append(g.halves, halfRec{to: int32(u), next: g.head[v], label: l})
	g.head[v] = int32(len(g.halves) - 1)
	g.deg[u]++
	g.deg[v]++
	g.edges = append(g.edges, Edge{From: u, To: v, Label: l})
	g.csr.Store(nil)
	return nil
}

// MustAddEdge is AddEdge that panics on duplicates; used by construction
// code where duplicates indicate a programming error.
func (g *Graph) MustAddEdge(u, v int, l Label) {
	if err := g.AddEdge(u, v, l); err != nil {
		panic(err)
	}
}

// scanHalf walks u's half-edge chain for the entry to v, or nil.
func (g *Graph) scanHalf(u, v int) *halfRec {
	for i := g.head[u]; i >= 0; i = g.halves[i].next {
		if int(g.halves[i].to) == v {
			return &g.halves[i]
		}
	}
	return nil
}

// HasEdge reports whether an edge between u and v exists.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.labels) {
		return false
	}
	return g.scanHalf(u, v) != nil
}

// EdgeLabel returns the label of edge (u, v), or NoLabel if absent.
func (g *Graph) EdgeLabel(u, v int) Label {
	if u < 0 || u >= len(g.labels) {
		return NoLabel
	}
	if h := g.scanHalf(u, v); h != nil {
		return h.label
	}
	return NoLabel
}

// Degree returns the degree of node v.
func (g *Graph) Degree(v int) int { return int(g.deg[v]) }

// CSR returns the graph's frozen compressed-sparse-row view, building
// it on first use after a mutation. The view's slices are immutable and
// safe to share across goroutines; hot loops should grab the view once
// and index the flat arrays directly instead of going through the
// callback accessors.
func (g *Graph) CSR() CSRView {
	c := g.freeze()
	return CSRView{
		NodeLabels: g.labels,
		RowStart:   c.rowStart,
		Nbr:        c.nbr,
		EdgeLabels: c.lab,
		EdgeIDs:    c.eid,
	}
}

// Freeze builds the CSR view eagerly (a no-op when already frozen) and
// returns g. Decoders and generators call it after construction so
// concurrent first readers of a shared graph never race on the lazy
// build; correctness does not depend on it — a benign double build
// publishes identical views.
func (g *Graph) Freeze() *Graph {
	g.freeze()
	return g
}

func (g *Graph) freeze() *csr {
	if c := g.csr.Load(); c != nil {
		return c
	}
	c := g.buildCSR()
	g.csr.Store(c)
	return c
}

// buildCSR packs the adjacency into flat rows via one counting pass.
// Replaying the edge list in insertion order and appending each half to
// its endpoint's cursor reproduces the historical per-node adjacency
// order exactly: the old slice-of-slices representation appended both
// halves of an edge at AddEdge time, so per-node order was also
// edge-insertion order.
func (g *Graph) buildCSR() *csr {
	n := len(g.labels)
	m := len(g.edges)
	c := &csr{
		rowStart: make([]int32, n+1),
		nbr:      make([]int32, 2*m),
		lab:      make([]Label, 2*m),
		eid:      make([]int32, 2*m),
	}
	for v := 0; v < n; v++ {
		c.rowStart[v+1] = c.rowStart[v] + g.deg[v]
	}
	cursor := make([]int32, n)
	copy(cursor, c.rowStart[:n])
	for i, e := range g.edges {
		pu, pv := cursor[e.From], cursor[e.To]
		c.nbr[pu], c.lab[pu], c.eid[pu] = int32(e.To), e.Label, int32(i)
		cursor[e.From] = pu + 1
		c.nbr[pv], c.lab[pv], c.eid[pv] = int32(e.From), e.Label, int32(i)
		cursor[e.To] = pv + 1
	}
	return c
}

// Neighbors calls fn for each neighbor of v with the neighbor id and the
// connecting edge label. Iteration order is insertion order.
func (g *Graph) Neighbors(v int, fn func(u int, l Label)) {
	c := g.freeze()
	lo, hi := c.rowStart[v], c.rowStart[v+1]
	for i := lo; i < hi; i++ {
		fn(int(c.nbr[i]), c.lab[i])
	}
}

// Edges returns the edge list. The caller must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// Labels returns the node label slice. The caller must not mutate it.
func (g *Graph) Labels() []Label { return g.labels }

// IsConnected reports whether g is connected (the empty graph counts as
// connected).
func (g *Graph) IsConnected() bool {
	n := g.NumNodes()
	if n <= 1 {
		return true
	}
	c := g.freeze()
	seen := make([]bool, n)
	stack := []int32{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := c.rowStart[v]; i < c.rowStart[v+1]; i++ {
			u := c.nbr[i]
			if !seen[u] {
				seen[u] = true
				count++
				stack = append(stack, u)
			}
		}
	}
	return count == n
}

// InducedSubgraph returns the subgraph induced by the given node ids, in
// the given order (node i of the result corresponds to nodes[i]). Edges
// between selected nodes are preserved. The result's ID is copied from g.
func (g *Graph) InducedSubgraph(nodes []int) *Graph {
	index := make(map[int]int, len(nodes))
	sub := New(len(nodes), 0)
	sub.ID = g.ID
	for i, v := range nodes {
		index[v] = i
		sub.AddNode(g.labels[v])
	}
	for _, e := range g.edges {
		fi, okF := index[e.From]
		ti, okT := index[e.To]
		if okF && okT {
			sub.MustAddEdge(fi, ti, e.Label)
		}
	}
	return sub
}

// CutGraph returns the ball of the given radius (in hops) around center,
// as an induced subgraph. Node 0 of the result is the center. This is the
// CutGraph(n, radius) primitive of Algorithm 2, line 12.
func (g *Graph) CutGraph(center, radius int) *Graph {
	c := g.freeze()
	seen := make([]bool, len(g.labels))
	seen[center] = true
	order := []int{center}
	// order doubles as the BFS queue; depth tracks hop counts via the
	// frontier boundary, preserving the historical visit order.
	type frontier struct{ end, depth int }
	fr := frontier{end: 1, depth: 0}
	for qi := 0; qi < len(order); qi++ {
		if qi == fr.end {
			fr = frontier{end: len(order), depth: fr.depth + 1}
		}
		if fr.depth == radius {
			continue
		}
		v := order[qi]
		for i := c.rowStart[v]; i < c.rowStart[v+1]; i++ {
			u := int(c.nbr[i])
			if !seen[u] {
				seen[u] = true
				order = append(order, u)
			}
		}
	}
	return g.InducedSubgraph(order).Freeze()
}

// Relabel returns a copy of g with nodes permuted by perm: node v of g
// becomes node perm[v] of the result. perm must be a permutation of
// [0, NumNodes). Useful for isomorphism-invariance tests.
func (g *Graph) Relabel(perm []int) *Graph {
	if len(perm) != g.NumNodes() {
		panic("graph: bad permutation length")
	}
	out := New(g.NumNodes(), g.NumEdges())
	out.ID = g.ID
	newLabels := make([]Label, g.NumNodes())
	for v, p := range perm {
		newLabels[p] = g.labels[v]
	}
	for _, l := range newLabels {
		out.AddNode(l)
	}
	for _, e := range g.edges {
		out.MustAddEdge(perm[e.From], perm[e.To], e.Label)
	}
	return out
}

// String renders a compact human-readable form, stable across runs.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph(id=%d, n=%d, m=%d; ", g.ID, g.NumNodes(), g.NumEdges())
	for v, l := range g.labels {
		if v > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "v%d:%d", v, l)
	}
	b.WriteString("; ")
	edges := append([]Edge(nil), g.edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	for i, e := range edges {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d-%d:%d", e.From, e.To, e.Label)
	}
	b.WriteByte(')')
	return b.String()
}

// Package graph provides the labeled undirected graph type that the whole
// repository is built on: molecules in the chemistry substrate, patterns in
// the miners, and windows cut around nodes by GraphSig.
//
// Graphs are node- and edge-labeled, undirected, and simple (at most one
// edge between a pair of nodes). Node identifiers are dense ints in
// [0, NumNodes). The zero Graph is empty and ready to use.
//
// A graph is its node labels and edge list. Reads go through a frozen
// compressed-sparse-row (CSR) view — flat rowStart/neighbor/edge-label
// arrays — that FromEdges builds with the graph, and that is rebuilt
// lazily on the first read after an AddNode/AddEdge. The neighbors of v
// appear in the order v's edges appear in the edge list. Mining output
// (CutGraph BFS order, DFS codes, window contents) depends on that
// order, so it is part of the representation's correctness contract,
// enforced by the differential tests against internal/graph/reference.
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
// Invariant maintained by AddEdge and FromEdges: From < To.
type Edge struct {
	From, To int
	Label    Label
}

// Graph is a labeled undirected simple graph. Build it with FromEdges, or
// grow a small one from New or the zero value with AddNode/AddEdge.
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

	// csr holds the frozen read view; nil until the first read after a
	// mutation. Stored through an atomic so concurrent readers can
	// publish/observe the built view without locks: losing a benign
	// build race just stores an identical view twice.
	csr atomic.Pointer[csr]
}

// csr is the frozen compressed-sparse-row adjacency: the half-edges of
// node v occupy rows [rowStart[v], rowStart[v+1]) of the packed arrays,
// in edge-list order. eid holds the index into the edge list of
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
	}
}

// FromEdges returns the graph with the given node labels and edge list,
// frozen; it is the constructor for every graph known whole up front.
// It reports an endpoint outside [0, len(labels)), a self loop or a
// repeated edge in O(n+m), and normalizes edges in place to From < To,
// keeping their order, as an AddEdge replay would. The graph takes
// ownership of both slices.
func FromEdges(labels []Label, edges []Edge) (*Graph, error) {
	n := len(labels)
	deg := make([]int32, n)
	for i, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.From, e.To, n)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("graph: self loop on node %d", e.From)
		}
		if e.From > e.To {
			edges[i].From, edges[i].To = e.To, e.From
		}
		deg[e.From]++
		deg[e.To]++
	}
	g := &Graph{labels: labels, edges: edges, deg: deg}
	c, seen := g.buildCSR()
	// A duplicate shows as a neighbor repeated within one CSR row; seen
	// (the build's spent cursor) stamps each neighbor with its row.
	clear(seen)
	for v := int32(0); v < int32(n); v++ {
		for i := c.rowStart[v]; i < c.rowStart[v+1]; i++ {
			u := c.nbr[i]
			if seen[u] == v+1 {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", min(u, v), max(u, v))
			}
			seen[u] = v + 1
		}
	}
	g.csr.Store(c)
	return g, nil
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
	g.csr.Store(nil)
	return len(g.labels) - 1
}

// NodeLabel returns the label of node v.
func (g *Graph) NodeLabel(v int) Label { return g.labels[v] }

// AddEdge inserts an undirected edge (u, v) with label l. It panics if u
// or v is out of range or u == v, and reports an error if the edge already
// exists (graphs are simple). The check scans the edge list: the graphs
// built edge by edge are small, the largest an SDF V2000 molecule (999
// bonds at most; chem's generated molecules have about 3×MeanAtoms
// atoms at most, social networks at most 17 nodes).
func (g *Graph) AddEdge(u, v int, l Label) error {
	if u == v {
		panic("graph: self loop")
	}
	if u < 0 || u >= len(g.labels) || v < 0 || v >= len(g.labels) {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, len(g.labels)))
	}
	if u > v {
		u, v = v, u
	}
	for _, e := range g.edges {
		if e.From == u && e.To == v {
			return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
		}
	}
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

// edge returns the label of the edge (u, v) and whether it exists,
// scanning u's CSR row. It freezes the graph.
func (g *Graph) edge(u, v int) (Label, bool) {
	if u < 0 || u >= len(g.labels) {
		return NoLabel, false
	}
	c := g.freeze()
	for i := c.rowStart[u]; i < c.rowStart[u+1]; i++ {
		if int(c.nbr[i]) == v {
			return c.lab[i], true
		}
	}
	return NoLabel, false
}

// HasEdge reports whether an edge between u and v exists.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := g.edge(u, v)
	return ok
}

// EdgeLabel returns the label of edge (u, v), or NoLabel if absent.
func (g *Graph) EdgeLabel(u, v int) Label {
	l, _ := g.edge(u, v)
	return l
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
// returns g, so that concurrent first readers of a graph built with
// AddEdge never race on the lazy build; correctness does not depend on
// it — a benign double build publishes identical views.
func (g *Graph) Freeze() *Graph {
	g.freeze()
	return g
}

func (g *Graph) freeze() *csr {
	if c := g.csr.Load(); c != nil {
		return c
	}
	c, _ := g.buildCSR()
	g.csr.Store(c)
	return c
}

// buildCSR packs the adjacency into flat rows, each in edge-list order,
// with one counting pass over the degrees. The int32 arrays share one
// allocation; the spent n-word cursor is returned as scratch.
func (g *Graph) buildCSR() (*csr, []int32) {
	n := len(g.labels)
	m := len(g.edges)
	slab := make([]int32, 2*n+1+4*m)
	c := &csr{
		rowStart: slab[: n+1 : n+1],
		nbr:      slab[n+1 : n+1+2*m : n+1+2*m],
		eid:      slab[n+1+2*m : n+1+4*m : n+1+4*m],
		lab:      make([]Label, 2*m),
	}
	for v := 0; v < n; v++ {
		c.rowStart[v+1] = c.rowStart[v] + g.deg[v]
	}
	cursor := slab[n+1+4*m:]
	copy(cursor, c.rowStart[:n])
	for i, e := range g.edges {
		pu, pv := cursor[e.From], cursor[e.To]
		c.nbr[pu], c.lab[pu], c.eid[pu] = int32(e.To), e.Label, int32(i)
		cursor[e.From] = pu + 1
		c.nbr[pv], c.lab[pv], c.eid[pv] = int32(e.From), e.Label, int32(i)
		cursor[e.To] = pv + 1
	}
	return c, cursor
}

// Neighbors calls fn for each neighbor of v with the neighbor id and the
// connecting edge label, in edge-list order.
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

// CutGraph returns the ball of the given radius (in hops) around center,
// as an induced subgraph with g's ID: node i is the i-th node the BFS
// from center visits, and the edges keep g's order. This is the
// CutGraph(n, radius) primitive of Algorithm 2, line 12.
func (g *Graph) CutGraph(center, radius int) *Graph {
	c := g.freeze()
	// pos[v] is v's index in the ball plus one, 0 while unvisited.
	pos := make([]int32, len(g.labels))
	pos[center] = 1
	order := []int32{int32(center)}
	// order doubles as the BFS queue; depth tracks hop counts via the
	// frontier boundary.
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
			if u := c.nbr[i]; pos[u] == 0 {
				order = append(order, u)
				pos[u] = int32(len(order))
			}
		}
	}
	labels := make([]Label, len(order))
	for i, v := range order {
		labels[i] = g.labels[v]
	}
	m := 0
	for _, e := range g.edges {
		if pos[e.From] > 0 && pos[e.To] > 0 {
			m++
		}
	}
	edges := make([]Edge, 0, m)
	for _, e := range g.edges {
		if pf, pt := pos[e.From], pos[e.To]; pf > 0 && pt > 0 {
			edges = append(edges, Edge{From: int(pf - 1), To: int(pt - 1), Label: e.Label})
		}
	}
	sub, err := FromEdges(labels, edges)
	if err != nil {
		panic(err) // an induced subgraph of a simple graph is simple
	}
	sub.ID = g.ID
	return sub
}

// Relabel returns a copy of g with nodes permuted by perm: node v of g
// becomes node perm[v] of the result. perm must be a permutation of
// [0, NumNodes). Useful for isomorphism-invariance tests.
func (g *Graph) Relabel(perm []int) *Graph {
	if len(perm) != g.NumNodes() {
		panic("graph: bad permutation length")
	}
	labels := make([]Label, g.NumNodes())
	for v, p := range perm {
		labels[p] = g.labels[v]
	}
	edges := make([]Edge, len(g.edges))
	for i, e := range g.edges {
		edges[i] = Edge{From: perm[e.From], To: perm[e.To], Label: e.Label}
	}
	out, err := FromEdges(labels, edges)
	if err != nil {
		panic(err) // perm is not a permutation
	}
	out.ID = g.ID
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

// Package social is a second, non-chemistry workload substrate: synthetic
// collaboration networks with role-labeled nodes (dev, ops, mgr, sec) and
// interaction-labeled edges (review, oncall). It exists to exercise
// GraphSig's general §II-A path — custom feature sets selected greedily
// rather than the built-in chemistry set — and to show that the mining
// core is domain-independent. A rare "incident triangle" (a security
// engineer on call with two ops engineers who are also on call together)
// can be planted into a minority of networks as the significant pattern
// to recover.
package social

import (
	"fmt"
	"math/rand"

	"graphsig/internal/feature"
	"graphsig/internal/graph"
)

// Role labels.
const (
	RoleDev graph.Label = iota
	RoleOps
	RoleMgr
	RoleSec
)

// Interaction (edge) labels.
const (
	EdgeReview graph.Label = iota
	EdgeOncall
)

// RoleNames maps role labels to display names.
var RoleNames = []string{"dev", "ops", "mgr", "sec"}

// EdgeName returns the display name of an interaction label.
func EdgeName(l graph.Label) string {
	if l == EdgeOncall {
		return "oncall"
	}
	return "review"
}

// Generator produces random collaboration networks deterministically.
type Generator struct {
	rng *rand.Rand
	// MinSize/MaxSize bound the network size (defaults 8..17).
	MinSize, MaxSize int
}

// NewGenerator returns a seeded Generator.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), MinSize: 8, MaxSize: 17}
}

// Network generates one random collaboration network: mostly devs with
// some ops and few managers/security, wired by a random review tree plus
// extra edges, with ~20% oncall edges.
func (g *Generator) Network() *graph.Graph {
	size := g.MinSize + g.rng.Intn(g.MaxSize-g.MinSize+1)
	net := graph.New(size, 2*size)
	for v := 0; v < size; v++ {
		x := g.rng.Float64()
		switch {
		case x < 0.6:
			net.AddNode(RoleDev)
		case x < 0.85:
			net.AddNode(RoleOps)
		case x < 0.95:
			net.AddNode(RoleMgr)
		default:
			net.AddNode(RoleSec)
		}
	}
	for v := 1; v < size; v++ {
		kind := EdgeReview
		if g.rng.Float64() < 0.2 {
			kind = EdgeOncall
		}
		net.MustAddEdge(g.rng.Intn(v), v, kind)
	}
	for e := 0; e < size/3; e++ {
		u, v := g.rng.Intn(size), g.rng.Intn(size)
		if u != v && !net.HasEdge(u, v) {
			net.MustAddEdge(u, v, EdgeReview)
		}
	}
	return net
}

// IncidentTriangle returns the planted significant pattern: a security
// engineer on call with two ops engineers who also share an oncall edge.
func IncidentTriangle() *graph.Graph {
	g := graph.New(3, 3)
	s := g.AddNode(RoleSec)
	o1 := g.AddNode(RoleOps)
	o2 := g.AddNode(RoleOps)
	g.MustAddEdge(s, o1, EdgeOncall)
	g.MustAddEdge(s, o2, EdgeOncall)
	g.MustAddEdge(o1, o2, EdgeOncall)
	return g
}

// Implant grafts an incident triangle onto net via one review edge.
func (g *Generator) Implant(net *graph.Graph) {
	base := net.NumNodes()
	tri := IncidentTriangle()
	for v := 0; v < tri.NumNodes(); v++ {
		net.AddNode(tri.NodeLabel(v))
	}
	for _, e := range tri.Edges() {
		net.MustAddEdge(base+e.From, base+e.To, e.Label)
	}
	if base > 0 {
		net.MustAddEdge(g.rng.Intn(base), base, EdgeReview)
	}
}

// Database generates n networks, planting the incident triangle into the
// first withPattern of them.
func (g *Generator) Database(n, withPattern int) []*graph.Graph {
	db := make([]*graph.Graph, n)
	for i := range db {
		net := g.Network()
		if i < withPattern {
			g.Implant(net)
		}
		net.ID = i
		db[i] = net
	}
	return db
}

// CandidateEdgeTypes enumerates the observed edge types of a database
// with relative frequency as importance — the candidate pool for the
// §II-A greedy feature selection.
func CandidateEdgeTypes(db []*graph.Graph) ([]feature.Candidate, []feature.EdgeType) {
	counts := map[feature.EdgeType]int{}
	total := 0
	for _, g := range db {
		for _, e := range g.Edges() {
			a, b := g.NodeLabel(e.From), g.NodeLabel(e.To)
			if a > b {
				a, b = b, a
			}
			counts[feature.EdgeType{A: a, B: b, Bond: e.Label}]++
			total++
		}
	}
	var cands []feature.Candidate
	var types []feature.EdgeType
	for t, c := range counts {
		tt := t
		tt.Name = fmt.Sprintf("%s-%s/%s", RoleNames[t.A], RoleNames[t.B], EdgeName(t.Bond))
		cands = append(cands, feature.Candidate{Name: tt.Name, Importance: float64(c) / float64(total)})
		types = append(types, tt)
	}
	return cands, types
}

// RoleOverlapSimilarity is a redundancy measure for greedy selection:
// edge types sharing endpoints describe overlapping structure.
func RoleOverlapSimilarity(types []feature.EdgeType) func(i, j int) float64 {
	return func(i, j int) float64 {
		shared := 0.0
		if types[i].A == types[j].A || types[i].A == types[j].B {
			shared += 0.5
		}
		if types[i].B == types[j].B || types[i].B == types[j].A {
			shared += 0.5
		}
		return shared
	}
}

// Package rwr implements the random-walk-with-restart feature extraction
// of §II-C: for each node of a graph, the stationary distribution of a
// walker that restarts at the node with probability alpha is converted
// into a distribution of traversed features and discretized into bins.
// This simulates sliding a window across the graph — one feature vector
// per node — while weighting features by proximity to the window center.
package rwr

import (
	"math"
	"runtime"
	"sync"

	"graphsig/internal/feature"
	"graphsig/internal/graph"
)

// Config controls the walk. The zero value is not valid; use Defaults.
type Config struct {
	// Alpha is the restart probability (paper default 0.25, giving an
	// effective window of ~1/alpha = 4 hops).
	Alpha float64
	// Bins is the number of discretization bins (paper default 10):
	// a feature mass v maps to round(Bins·v).
	Bins int
	// MaxIterations bounds the power iteration (default 100).
	MaxIterations int
	// Tolerance is the L1 convergence threshold (default 1e-9).
	Tolerance float64
	// Workers bounds DatabaseVectors' goroutine fan-out (0 or negative
	// = GOMAXPROCS). Output is deterministic at any setting.
	Workers int
}

// Defaults returns the paper's Table IV configuration.
func Defaults() Config {
	return Config{Alpha: 0.25, Bins: 10, MaxIterations: 100, Tolerance: 1e-9}
}

func (c *Config) fill() {
	if c.Alpha <= 0 || c.Alpha >= 1 {
		c.Alpha = 0.25
	}
	if c.Bins <= 0 {
		c.Bins = 10
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 100
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 1e-9
	}
}

// Walk runs RWR from start on g and returns the discretized feature
// vector of the window centered at start.
func Walk(g *graph.Graph, start int, fs *feature.Set, cfg Config) feature.Vector {
	cfg.fill()
	masses := FeatureMasses(g, start, fs, cfg)
	return Discretize(masses, cfg.Bins)
}

// FeatureMasses returns the continuous per-feature traversal distribution
// of an RWR from start: entry i is the stationary probability that a
// non-restart step traverses feature i. The entries sum to 1 for any node
// with at least one neighbor, and are all zero for isolated nodes.
func FeatureMasses(g *graph.Graph, start int, fs *feature.Set, cfg Config) []float64 {
	cfg.fill()
	masses := make([]float64, fs.Len())
	if g.Degree(start) == 0 {
		return masses
	}
	p := stationary(g, start, cfg)

	// At stationarity, a step departs node u with probability p[u]·(1-α)
	// and picks each incident edge with probability 1/deg(u). Each
	// directed traversal u->v updates the feature of edge (u,v): the
	// edge-type feature when the endpoint pair is in the set, otherwise
	// the atom feature of the node stepped onto (v).
	total := 0.0
	c := g.CSR()
	for u := 0; u < len(c.NodeLabels); u++ {
		deg := c.RowStart[u+1] - c.RowStart[u]
		if p[u] == 0 || deg == 0 {
			continue
		}
		out := p[u] * (1 - cfg.Alpha) / float64(deg)
		lu := c.NodeLabels[u]
		for i := c.RowStart[u]; i < c.RowStart[u+1]; i++ {
			lv, bond := c.NodeLabels[c.Nbr[i]], c.EdgeLabels[i]
			if fi, ok := fs.EdgeFeature(lu, lv, bond); ok {
				masses[fi] += out
			} else if fi, ok := fs.AtomFeature(lv); ok {
				masses[fi] += out
			}
			total += out
		}
	}
	// Normalize to a distribution over features (the paper's "continuous
	// distribution of features ... in the range [0,1]").
	if total > 0 {
		for i := range masses {
			masses[i] /= total
		}
	}
	return masses
}

// stationary computes the RWR stationary node distribution by power
// iteration: p' = α·e_start + (1-α)·PᵀP p with uniform neighbor choice.
// Nodes unreachable from start (or past the walk's effective horizon)
// receive vanishing mass.
func stationary(g *graph.Graph, start int, cfg Config) []float64 {
	n := g.NumNodes()
	c := g.CSR()
	p := make([]float64, n)
	next := make([]float64, n)
	p[start] = 1
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		for i := range next {
			next[i] = 0
		}
		next[start] = cfg.Alpha
		for u := 0; u < n; u++ {
			if p[u] == 0 {
				continue
			}
			deg := c.RowStart[u+1] - c.RowStart[u]
			if deg == 0 {
				// Dangling mass restarts.
				next[start] += (1 - cfg.Alpha) * p[u]
				continue
			}
			share := (1 - cfg.Alpha) * p[u] / float64(deg)
			for i := c.RowStart[u]; i < c.RowStart[u+1]; i++ {
				next[c.Nbr[i]] += share
			}
		}
		delta := 0.0
		for i := range p {
			delta += math.Abs(next[i] - p[i])
		}
		p, next = next, p
		if delta < cfg.Tolerance {
			break
		}
	}
	return p
}

// Discretize maps continuous masses in [0,1] to bins: round(bins·v),
// matching the paper's example (0.07 -> 1, 0.34 -> 3 with 10 bins).
func Discretize(masses []float64, bins int) feature.Vector {
	v := make(feature.Vector, len(masses))
	for i, m := range masses {
		b := int(math.Round(float64(bins) * m))
		if b < 0 {
			b = 0
		}
		if b > 255 {
			b = 255
		}
		v[i] = uint8(b)
	}
	return v
}

// NodeVector is the vector produced by RWR on one node, tagged with its
// provenance: vector(n) and label(v) in the paper's notation.
type NodeVector struct {
	// GraphID is the index of the source graph in the database slice.
	GraphID int
	// NodeID is the source node within that graph.
	NodeID int
	// Label is the source node's label (vectors are grouped by it in
	// Algorithm 2, line 6).
	Label graph.Label
	// Vec is the discretized RWR feature vector.
	Vec feature.Vector
}

// GraphVectors runs RWR on every node of g and returns one vector per
// node, in node order.
func GraphVectors(g *graph.Graph, fs *feature.Set, cfg Config) []feature.Vector {
	out := make([]feature.Vector, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		out[v] = Walk(g, v, fs, cfg)
	}
	return out
}

// DatabaseVectors converts an entire database into feature space: RWR on
// every node of every graph (Algorithm 2, lines 3-4). Work is spread
// across cfg.Workers goroutines (default GOMAXPROCS); output order is
// deterministic (by graph, then node).
func DatabaseVectors(db []*graph.Graph, fs *feature.Set, cfg Config) []NodeVector {
	cfg.fill()
	offsets := make([]int, len(db)+1)
	for i, g := range db {
		offsets[i+1] = offsets[i] + g.NumNodes()
	}
	out := make([]NodeVector, offsets[len(db)])

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(db) {
		workers = len(db)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range work {
				g := db[gi]
				base := offsets[gi]
				for v := 0; v < g.NumNodes(); v++ {
					out[base+v] = NodeVector{
						GraphID: gi,
						NodeID:  v,
						Label:   g.NodeLabel(v),
						Vec:     Walk(g, v, fs, cfg),
					}
				}
			}
		}()
	}
	for gi := range db {
		work <- gi
	}
	close(work)
	wg.Wait()
	return out
}

// WindowCounts is the ablation alternative to RWR discussed in §II-C: it
// simply counts feature occurrences inside the radius-bounded window
// around start (each edge once, no proximity weighting) and normalizes to
// a distribution before discretization. Benchmarks compare its
// discriminative power against RWR.
func WindowCounts(g *graph.Graph, start, radius int, fs *feature.Set, bins int) feature.Vector {
	window := g.CutGraph(start, radius)
	masses := make([]float64, fs.Len())
	total := 0.0
	for _, e := range window.Edges() {
		lu, lv := window.NodeLabel(e.From), window.NodeLabel(e.To)
		if fi, ok := fs.EdgeFeature(lu, lv, e.Label); ok {
			masses[fi]++
		} else {
			// Count both endpoints' atom features, mirroring the
			// walker updating the atom stepped onto in either direction.
			if fi, ok := fs.AtomFeature(lu); ok {
				masses[fi]++
			}
			if fi, ok := fs.AtomFeature(lv); ok {
				masses[fi]++
			}
		}
		total++
	}
	if total > 0 {
		for i := range masses {
			masses[i] /= total
		}
	}
	return Discretize(masses, bins)
}

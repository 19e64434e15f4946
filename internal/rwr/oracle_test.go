package rwr

import (
	"math"

	"graphsig/internal/feature"
	"graphsig/internal/graph"
)

// Test oracles: the one-source push iteration the batched kernel
// replaced, and an exact solve it is checked against.

// stationary computes the RWR stationary node distribution by power
// iteration: p' = α·e_start + (1-α)·PᵀP p with uniform neighbor choice,
// pushing each node's mass to its neighbours in CSR row order. It stops
// when the L1 delta drops below the tolerance or after
// min(cfg.MaxIterations, stopAt) iterations, and returns the
// distribution and the number of iterations it ran.
func stationary(g *graph.Graph, start int, cfg Config, stopAt int) ([]float64, int) {
	n := g.NumNodes()
	c := g.CSR()
	p := make([]float64, n)
	next := make([]float64, n)
	p[start] = 1
	iter := 0
	for iter < min(cfg.MaxIterations, stopAt) {
		iter++
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
	return p, iter
}

// converged is stationary run to its own stop.
func converged(g *graph.Graph, start int, cfg Config) []float64 {
	p, _ := stationary(g, start, cfg, cfg.MaxIterations)
	return p
}

// pushFeatureMasses is the per-feature traversal distribution of the
// push iteration's stationary distribution p from start: entry i is the
// probability that a non-restart step traverses feature i, with the
// feature of each traversal looked up in the set's maps. The entries sum
// to 1 for any start with at least one neighbor, and are all zero for
// an isolated start.
func pushFeatureMasses(g *graph.Graph, start int, p []float64, fs *feature.Set, cfg Config) []float64 {
	masses := make([]float64, fs.Len())
	if g.Degree(start) == 0 {
		return masses
	}
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
	if total > 0 {
		for i := range masses {
			masses[i] /= total
		}
	}
	return masses
}

// oracleMasses is pushFeatureMasses over the push iteration run to its
// own stop.
func oracleMasses(g *graph.Graph, start int, fs *feature.Set, cfg Config) []float64 {
	return pushFeatureMasses(g, start, converged(g, start, cfg), fs, cfg)
}

// StationaryExact solves the RWR stationary distribution as a linear
// system by Gauss-Seidel iteration to machine precision:
//
//	p = α·e_start + (1-α)·Pᵀ p
//
// It is the high-accuracy oracle the power iteration is checked against.
func StationaryExact(g *graph.Graph, start int, alpha float64) []float64 {
	n := g.NumNodes()
	p := make([]float64, n)
	p[start] = 1
	for sweep := 0; sweep < 10000; sweep++ {
		delta := 0.0
		for v := 0; v < n; v++ {
			sum := 0.0
			g.Neighbors(v, func(u int, _ graph.Label) {
				if d := g.Degree(u); d > 0 {
					sum += p[u] / float64(d)
				}
			})
			next := (1 - alpha) * sum
			if v == start {
				next += alpha
			}
			delta += math.Abs(next - p[v])
			p[v] = next
		}
		if delta < 1e-14 {
			break
		}
	}
	return p
}

package rwr

import (
	"math"

	"graphsig/internal/graph"
)

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

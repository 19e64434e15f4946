package fvmine

import (
	"container/heap"
	"math"

	"graphsig/internal/feature"
	"graphsig/internal/runctl"
	"graphsig/internal/sigmodel"
)

// MineTopK returns the k most significant closed sub-feature vectors,
// without requiring a p-value threshold: the search keeps the best k
// found so far and dynamically tightens the pruning threshold to the
// current k-th best p-value, so branches that cannot break into the top
// k are cut. MinSupport still applies. Results come back most
// significant first. The search checkpoints per recursion state on ctl
// (nil = unbounded) and unwinds with the best k found so far when the
// controller trips — a valid (if shallower) top-k set.
func MineTopK(vectors []feature.Vector, k int, minSupport int, model *sigmodel.Model, ctl *runctl.Controller) []Significant {
	out, _ := mineTopK(vectors, k, minSupport, model, ctl)
	return out
}

// mineTopK is MineTopK that also returns the states the search explored.
func mineTopK(vectors []feature.Vector, k int, minSupport int, model *sigmodel.Model, ctl *runctl.Controller) ([]Significant, int) {
	if k <= 0 || len(vectors) == 0 {
		return nil, 0
	}
	if minSupport < 1 {
		minSupport = 1
	}
	if len(vectors) < minSupport {
		return nil, 0
	}
	if model == nil {
		model = sigmodel.New(vectors)
	}
	m := &topKMiner{k: k, model: model}
	s := newSearcher(vectors, model, minSupport, ctl.Checkpoint(runctl.StageFVMine))
	defer s.cp.Flush()
	// Tightening prune: the most significant any descendant can be.
	s.visit = m.visit
	s.fruitless = func(ceil feature.Vector, size int) bool { return model.LogPValue(ceil, size) >= m.bound() }
	s.run()

	out := make([]Significant, len(m.best))
	for i := len(m.best) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&m.best).(Significant)
	}
	return out, s.states
}

type topKMiner struct {
	k     int
	model *sigmodel.Model
	// best is a max-heap on log p-value: the root is the *worst* of the
	// current top k, ready for eviction.
	best significantHeap
}

// bound returns the current pruning threshold: +Inf until the heap
// fills, then the k-th best log p-value.
func (m *topKMiner) bound() float64 {
	if len(m.best) < m.k {
		return math.Inf(1)
	}
	return m.best[0].LogPValue
}

func (m *topKMiner) visit(f *frame) {
	if f.floor.IsZero() {
		return
	}
	if logP := m.model.LogPValue(f.floor, f.size); logP < m.bound() {
		heap.Push(&m.best, newSignificant(f, logP))
		if len(m.best) > m.k {
			heap.Pop(&m.best)
		}
	}
}

// significantHeap is a max-heap by log p-value (worst at the root).
type significantHeap []Significant

func (h significantHeap) Len() int { return len(h) }
func (h significantHeap) Less(i, j int) bool {
	if h[i].LogPValue != h[j].LogPValue {
		return h[i].LogPValue > h[j].LogPValue
	}
	return h[i].Support < h[j].Support
}
func (h significantHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *significantHeap) Push(x any)   { *h = append(*h, x.(Significant)) }
func (h *significantHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

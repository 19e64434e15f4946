package fvmine

import (
	"container/heap"
	"math"

	"graphsig/internal/feature"
	"graphsig/internal/runctl"
	"graphsig/internal/sigmodel"
)

// This file keeps the index-list FVMine kernel the bitset searcher
// replaced: every state's supporting set is an ascending index slice,
// the branch filter and the floor/ceiling scans walk it element by
// element. It is the reference the kernel-equivalence tests compare
// the production searcher against, state for state.

// refMine is Mine on the reference kernel.
func refMine(vectors []feature.Vector, opt Options) Result {
	if opt.MinSupport < 1 {
		opt.MinSupport = 1
	}
	if len(vectors) == 0 || len(vectors) < opt.MinSupport {
		return Result{}
	}
	model := opt.Model
	if model == nil {
		model = sigmodel.New(vectors)
	}
	logMaxP := math.Log(opt.MaxPvalue)
	var out []Significant
	s := newRefSearcher(vectors, model, opt.MinSupport, opt.Ctl.Checkpoint(runctl.StageFVMine))
	if err := s.cp.Force(); err != nil {
		return Result{Truncated: true, StopReason: runctl.ReasonOf(err)}
	}
	visit := func(x feature.Vector, set []int, logP float64) {
		if logP > logMaxP || (opt.SkipZeroFloor && x.IsZero()) {
			return
		}
		out = append(out, refSignificant(x, set, logP))
	}
	s.run(visit, func(ceilLogP float64) bool { return ceilLogP > logMaxP })
	return Result{Vectors: out, Truncated: s.stopped, StopReason: s.stopWhy, StatesExplored: s.states}
}

// refMineTopK is MineTopK on the reference kernel. It also returns the
// states the search explored.
func refMineTopK(vectors []feature.Vector, k int, minSupport int, model *sigmodel.Model, ctl *runctl.Controller) ([]Significant, int) {
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
	m := &topKMiner{k: k}
	visit := func(x feature.Vector, set []int, logP float64) {
		if !x.IsZero() && logP < m.bound() {
			heap.Push(&m.best, refSignificant(x, set, logP))
			if len(m.best) > m.k {
				heap.Pop(&m.best)
			}
		}
	}
	s := newRefSearcher(vectors, model, minSupport, ctl.Checkpoint(runctl.StageFVMine))
	s.run(visit, func(ceilLogP float64) bool { return ceilLogP >= m.bound() })

	out := make([]Significant, len(m.best))
	for i := len(m.best) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&m.best).(Significant)
	}
	return out, s.states
}

func refSignificant(x feature.Vector, set []int, logP float64) Significant {
	return Significant{
		Vec:        x.Clone(),
		Support:    len(set),
		SupportIdx: append([]int(nil), set...),
		PValue:     math.Exp(logP),
		LogPValue:  logP,
	}
}

// refSearcher is the branch kernel shared by the threshold and top-k miners:
// a depth-first walk over closed vectors (x, S) with support and
// duplicate-state pruning, leaving what to report and when the ceiling
// p-value makes a branch fruitless to its caller.
type refSearcher struct {
	n int // vectors in the group
	// cols[i][idx] = vectors[idx][i]: the column-major copy the branch
	// filter scans.
	cols   [][]uint8
	model  *sigmodel.Model
	minSup int
	cp     *runctl.Checkpoint
	// frames[d] holds the state at depth d. A depth's branches reuse
	// frames[d+1] one after another; nothing outlives its branch unless
	// visit copies it.
	frames []*refFrame

	visit     func(x feature.Vector, set []int, logP float64)
	fruitless func(ceilLogP float64) bool

	states  int
	stopped bool
	stopWhy runctl.Reason
}

// refFrame is one search state's scratch: its supporting set, its closed
// vector (the floor of the set), the ceiling of the set, and the
// features that vary over the set (floor below ceiling), ascending.
type refFrame struct {
	set         []int
	floor, ceil feature.Vector
	vary        []int
}

func newRefSearcher(vectors []feature.Vector, model *sigmodel.Model, minSup int, cp *runctl.Checkpoint) *refSearcher {
	n, dim := len(vectors), len(vectors[0])
	slab := make([]uint8, n*dim)
	cols := make([][]uint8, dim)
	for i := range cols {
		cols[i] = slab[i*n : (i+1)*n]
	}
	for idx, v := range vectors {
		for i, x := range v {
			cols[i][idx] = x
		}
	}
	return &refSearcher{n: n, cols: cols, model: model, minSup: minSup, cp: cp}
}

// frame returns the scratch of depth d, allocating it on first use.
func (s *refSearcher) frame(d int) *refFrame {
	for len(s.frames) <= d {
		dim := len(s.cols)
		s.frames = append(s.frames, &refFrame{
			set:   make([]int, 0, s.n),
			floor: make(feature.Vector, dim),
			ceil:  make(feature.Vector, dim),
			vary:  make([]int, 0, dim),
		})
	}
	return s.frames[d]
}

// run searches from the floor of the whole database. visit sees every
// state's closed vector, supporting set and log p-value; both are
// scratch, valid only during the call.
// fruitless reports whether a branch whose ceiling has the given log
// p-value can be skipped.
func (s *refSearcher) run(visit func(x feature.Vector, set []int, logP float64), fruitless func(ceilLogP float64) bool) {
	s.visit, s.fruitless = visit, fruitless
	root := s.frame(0)
	for idx := 0; idx < s.n; idx++ {
		root.set = append(root.set, idx)
	}
	for j, col := range s.cols {
		root.floor[j], root.ceil[j] = refSpan(col, root.set)
		if root.floor[j] != root.ceil[j] {
			root.vary = append(root.vary, j)
		}
	}
	s.search(0, 0)
}

// refSpan returns the minimum and maximum of col over set, in one pass.
func refSpan(col []uint8, set []int) (lo, hi uint8) {
	lo, hi = col[set[0]], col[set[0]]
	for _, idx := range set[1:] {
		v := col[idx]
		lo = min(lo, v)
		hi = max(hi, v)
	}
	return lo, hi
}

// bounds fills child's floor, ceiling and varying features, where
// child.set refines the set of parent. A feature constant over the
// parent's set is constant over child.set, so only the parent's varying
// features are scanned. For a branch on position i it stops early,
// returning false, at the first feature j < i whose floor rises above
// the parent's: the duplicate-state test.
func (s *refSearcher) bounds(child, parent *refFrame, i int) bool {
	x := parent.floor
	copy(child.floor, x)
	copy(child.ceil, x)
	child.vary = child.vary[:0]
	for _, j := range parent.vary {
		lo, hi := refSpan(s.cols[j], child.set)
		if j < i && lo > x[j] {
			return false
		}
		child.floor[j], child.ceil[j] = lo, hi
		if lo != hi {
			child.vary = append(child.vary, j)
		}
	}
	return true
}

// search is FVMine(x, S, b) on the state in frames[d]: x is its closed
// vector, S its supporting set, b the first feature position to branch on.
func (s *refSearcher) search(d, b int) {
	if s.stopped {
		return
	}
	s.states++
	if err := s.cp.Step(); err != nil {
		s.stopped = true
		if se, ok := runctl.AsStop(err); ok {
			s.stopWhy = se.Reason
		}
		return
	}
	f := s.frame(d)
	x, set := f.floor, f.set
	s.visit(x, set, s.model.LogPValue(x, len(set)))
	// Lines 3-12: branch on each feature position from b. Where x_i is
	// the ceiling no y exceeds it, so only varying features can branch.
	child := s.frame(d + 1)
	for _, i := range f.vary {
		if i < b {
			continue
		}
		// S' = {y in S : y_i > x_i}.
		col, xi := s.cols[i], x[i]
		sub := child.set[:0]
		for _, idx := range set {
			if col[idx] > xi {
				sub = append(sub, idx)
			}
		}
		child.set = sub
		if len(sub) < s.minSup {
			continue
		}
		// Duplicate state: the refined floor raised a feature left of i,
		// so the state is owned by an earlier branch.
		if !s.bounds(child, f, i) {
			continue
		}
		// Ceiling prune: the most significant any descendant can get is
		// p-value(ceiling(S'), |S'|).
		if s.fruitless(s.model.LogPValue(child.ceil, len(sub))) {
			continue
		}
		s.search(d+1, i)
		if s.stopped {
			return
		}
	}
}

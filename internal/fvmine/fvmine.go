// Package fvmine implements FVMine (Algorithm 1 of the paper): a
// bottom-up, depth-first search over closed sub-feature vectors of a
// vector database, reporting every closed vector whose binomial p-value
// is at most a threshold and whose support is at least a threshold.
//
// The search state is a pair (x, S) where S is the exact supporting set
// of the closed vector x = floor(S). Branching on feature position i
// refines S to the vectors exceeding x_i; three prunes bound the search:
// support (anti-monotone), duplicate states (a raised floor left of the
// branch position means another branch owns the state), and the
// ceiling-based p-value lower bound (the most significant any descendant
// could be).
package fvmine

import (
	"math"
	"sort"

	"graphsig/internal/feature"
	"graphsig/internal/runctl"
	"graphsig/internal/sigmodel"
)

// Options configures a mine. MinSupport and MaxPvalue correspond to the
// paper's minSup and maxPvalue parameters.
type Options struct {
	// MinSupport is the minimum supporting-set size (>= 1).
	MinSupport int
	// MaxPvalue is the p-value threshold (paper default 0.1).
	MaxPvalue float64
	// Model supplies feature priors. When nil, a model is built from the
	// input vectors themselves (the paper's empirical priors).
	Model *sigmodel.Model
	// Ctl is the shared run controller carrying cancellation, deadline
	// and the FVMine state budget. The search checkpoints every
	// runctl.DefaultCheckInterval recursion states, so overshoot past a
	// deadline is bounded by one interval of state expansions rather
	// than one arbitrary subtree.
	Ctl *runctl.Controller
	// SkipZeroFloor drops reported vectors that are all-zero (an all-zero
	// floor carries no structural information). GraphSig enables this.
	SkipZeroFloor bool
}

// Significant is one mined closed sub-feature vector.
type Significant struct {
	// Vec is the closed vector: the floor of its supporting set.
	Vec feature.Vector
	// Support is the exact supporting-set size.
	Support int
	// SupportIdx are indices into the input vector slice of the
	// supporting vectors, ascending.
	SupportIdx []int
	// PValue is the binomial-tail p-value (may underflow to 0; use
	// LogPValue for ranking).
	PValue float64
	// LogPValue is log(PValue), finite ordering even in deep underflow.
	LogPValue float64
}

// Result is the outcome of a mine.
type Result struct {
	Vectors   []Significant
	Truncated bool
	// StopReason classifies why a truncated mine stopped ("" = complete).
	StopReason runctl.Reason
	// StatesExplored counts recursion states, exposing pruning behavior.
	StatesExplored int
}

type miner struct {
	opt     Options
	logMaxP float64
	out     []Significant
}

// Mine runs FVMine over vectors. All vectors must share one length.
func Mine(vectors []feature.Vector, opt Options) Result {
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
	m := &miner{opt: opt, logMaxP: math.Log(opt.MaxPvalue)}
	s := newSearcher(vectors, model, opt.MinSupport, opt.Ctl.Checkpoint(runctl.StageFVMine))
	// Un-amortized check up front so an already-expired deadline or
	// canceled context truncates before any work.
	if err := s.cp.Force(); err != nil {
		return Result{Truncated: true, StopReason: runctl.ReasonOf(err)}
	}
	// Ceiling prune: if even the most significant descendant misses the
	// threshold, the whole branch is fruitless.
	s.run(m.visit, func(ceilLogP float64) bool { return ceilLogP > m.logMaxP })
	return Result{Vectors: m.out, Truncated: s.stopped, StopReason: s.stopWhy, StatesExplored: s.states}
}

// visit is Algorithm 1 lines 1-2: report x when significant.
func (m *miner) visit(x feature.Vector, set []int, logP float64) {
	if logP > m.logMaxP || (m.opt.SkipZeroFloor && x.IsZero()) {
		return
	}
	m.out = append(m.out, newSignificant(x, set, logP))
}

func newSignificant(x feature.Vector, set []int, logP float64) Significant {
	return Significant{
		Vec:        x.Clone(),
		Support:    len(set),
		SupportIdx: append([]int(nil), set...),
		PValue:     math.Exp(logP),
		LogPValue:  logP,
	}
}

// searcher is the branch kernel shared by the threshold and top-k miners:
// a depth-first walk over closed vectors (x, S) with support and
// duplicate-state pruning, leaving what to report and when the ceiling
// p-value makes a branch fruitless to its caller.
type searcher struct {
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
	frames []*frame

	visit     func(x feature.Vector, set []int, logP float64)
	fruitless func(ceilLogP float64) bool

	states  int
	stopped bool
	stopWhy runctl.Reason
}

// frame is one search state's scratch: its supporting set, its closed
// vector (the floor of the set), the ceiling of the set, and the
// features that vary over the set (floor below ceiling), ascending.
type frame struct {
	set         []int
	floor, ceil feature.Vector
	vary        []int
}

func newSearcher(vectors []feature.Vector, model *sigmodel.Model, minSup int, cp *runctl.Checkpoint) *searcher {
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
	return &searcher{n: n, cols: cols, model: model, minSup: minSup, cp: cp}
}

// frame returns the scratch of depth d, allocating it on first use.
func (s *searcher) frame(d int) *frame {
	for len(s.frames) <= d {
		dim := len(s.cols)
		s.frames = append(s.frames, &frame{
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
func (s *searcher) run(visit func(x feature.Vector, set []int, logP float64), fruitless func(ceilLogP float64) bool) {
	s.visit, s.fruitless = visit, fruitless
	root := s.frame(0)
	for idx := 0; idx < s.n; idx++ {
		root.set = append(root.set, idx)
	}
	for j, col := range s.cols {
		root.floor[j], root.ceil[j] = span(col, root.set)
		if root.floor[j] != root.ceil[j] {
			root.vary = append(root.vary, j)
		}
	}
	s.search(0, 0)
}

// span returns the minimum and maximum of col over set, in one pass.
func span(col []uint8, set []int) (lo, hi uint8) {
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
func (s *searcher) bounds(child, parent *frame, i int) bool {
	x := parent.floor
	copy(child.floor, x)
	copy(child.ceil, x)
	child.vary = child.vary[:0]
	for _, j := range parent.vary {
		lo, hi := span(s.cols[j], child.set)
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
func (s *searcher) search(d, b int) {
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

// SortBySignificance orders significant vectors most significant first
// (ascending log p-value, ties by descending support then vector bytes).
func SortBySignificance(vs []Significant) {
	sort.Slice(vs, func(i, j int) bool {
		if vs[i].LogPValue != vs[j].LogPValue {
			return vs[i].LogPValue < vs[j].LogPValue
		}
		if vs[i].Support != vs[j].Support {
			return vs[i].Support > vs[j].Support
		}
		return vs[i].Vec.Key() < vs[j].Vec.Key()
	})
}

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
// could be). Significance is decided by bounds where they settle it
// (sigmodel.Model.Settle), and the searches of one worker pool hand
// subtrees to idle workers (Team); neither changes the answer.
package fvmine

import (
	"math"
	"math/bits"
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
	// Tails counts the binomial tails the search evaluated: the p-values
	// of reported states and the comparisons with MaxPvalue that no
	// bound of sigmodel.Model.Settle decided.
	Tails int

	// gifts counts the subtrees given to idle helpers (Team.Mine).
	gifts int
}

// Mine runs FVMine over vectors. All vectors must share one length.
func Mine(vectors []feature.Vector, opt Options) Result {
	return (*Team)(nil).Mine(vectors, opt)
}

// miner is one threshold search: a label group's own search, or a
// subtree of it that an idle helper took (Team).
type miner struct {
	s        *searcher
	logMaxP  float64
	skipZero bool
	out      []Significant
	// holes are the subtrees given away, in search order; each one's
	// output joins before out[at].
	holes []hole
	tails int
}

type hole struct {
	at int
	t  *subtree
}

func newMiner(s *searcher, opt Options) *miner {
	m := &miner{s: s, logMaxP: math.Log(opt.MaxPvalue), skipZero: opt.SkipZeroFloor}
	s.visit, s.fruitless, s.placed = m.visit, m.fruitless, m.place
	return m
}

// visit is Algorithm 1 lines 1-2: report x when significant. The
// p-value is evaluated only for a state a bound did not already show
// insignificant.
func (m *miner) visit(f *frame) {
	if m.skipZero && f.floor.IsZero() {
		return
	}
	if above, decided := m.s.model.Settle(f.floor, f.size, m.logMaxP); decided && above {
		return
	}
	m.tails++
	logP := m.s.model.LogPValue(f.floor, f.size)
	if logP > m.logMaxP {
		return
	}
	m.out = append(m.out, newSignificant(f, logP))
}

// fruitless is the ceiling prune: if even the most significant
// descendant, p-value(ceiling(S), |S|), misses the threshold, the whole
// branch is.
func (m *miner) fruitless(ceil feature.Vector, size int) bool {
	if above, decided := m.s.model.Settle(ceil, size, m.logMaxP); decided {
		return above
	}
	m.tails++
	return m.s.model.LogPValue(ceil, size) > m.logMaxP
}

// place marks where a subtree given away joins this search's output.
func (m *miner) place(t *subtree) {
	m.holes = append(m.holes, hole{at: len(m.out), t: t})
}

// join appends the search's output to res in search order, with every
// subtree it gave away joined in at its hole, and sums their states,
// tails and truncation into res.
func (m *miner) join(res *Result) {
	res.StatesExplored += m.s.states
	res.Tails += m.tails
	if m.s.stopped {
		res.Truncated = true
		if res.StopReason == "" {
			res.StopReason = m.s.stopWhy
		}
	}
	prev := 0
	for _, h := range m.holes {
		res.Vectors = append(res.Vectors, m.out[prev:h.at]...)
		prev = h.at
		res.gifts++
		h.t.m.join(res)
	}
	res.Vectors = append(res.Vectors, m.out[prev:]...)
}

// newSignificant copies out the state in f, expanding its supporting
// set into indices.
func newSignificant(f *frame, logP float64) Significant {
	return Significant{
		Vec:        f.floor.Clone(),
		Support:    f.size,
		SupportIdx: append([]int(nil), f.indices()...),
		PValue:     math.Exp(logP),
		LogPValue:  logP,
	}
}

// searcher is the branch kernel shared by the threshold and top-k miners:
// a depth-first walk over closed vectors (x, S) with support and
// duplicate-state pruning, leaving what to report and when the ceiling
// p-value makes a branch fruitless to its caller.
//
// A supporting set S is a bitset over the group's vectors. The index ge
// turns the branch filter into a word-wise AND and a state's floor and
// ceiling into subset and disjointness tests that stop at the first
// word deciding them.
type searcher struct {
	*kernel
	cp *runctl.Checkpoint
	// frames[d] holds the state at depth d. A depth's branches reuse
	// frames[d+1] one after another; nothing outlives its branch unless
	// visit copies it or it is given away.
	frames []*frame

	// visit sees every state; fruitless reports whether a branch whose
	// supporting set has this ceiling and size can be skipped.
	visit     func(f *frame)
	fruitless func(ceil feature.Vector, size int) bool
	// split, when non-nil, lets idle helpers of its team take this
	// search's subtrees; placed marks where one given away joins the
	// output.
	split  *split
	placed func(t *subtree)

	states  int
	stopped bool
	stopWhy runctl.Reason
}

// kernel is a group's read-only search data, shared by its searchers.
type kernel struct {
	n     int // vectors in the group
	words int // 64-bit words per supporting set
	// cols[j][idx] = vectors[idx][j]: the column-major copy the bounds of
	// small sets scan.
	cols [][]uint8
	// ge[j][v] = {idx : vectors[idx][j] >= v} for v in 1..max_j; ge[j][0]
	// is unused. The sets share one slab, their headers another.
	ge     [][][]uint64
	model  *sigmodel.Model
	minSup int
}

// frame is one search state's scratch: its supporting set and its size,
// its closed vector (the floor of the set), the ceiling of the set, and
// the features that vary over the set (floor below ceiling), ascending.
type frame struct {
	set  []uint64
	size int
	// idx lists set ascending once expanded, and is empty until then
	// (no state's set is empty). Only a small set's bounds and a reported
	// state expand it.
	idx         []int
	floor, ceil feature.Vector
	vary        []int

	// While the search is below this state, pos is the index in vary of
	// the branch it is in. Branches from pos+1 up to ahead were already
	// refined to give one away (searcher.donate): gifts lists those
	// given, ascending, and the rest were pruned.
	pos, ahead int
	gifts      []gift
}

// gift is a branch of a frame given away: its index in vary and the
// subtree that searches it.
type gift struct {
	pos int
	t   *subtree
}

func newFrame(dim, words int) *frame {
	return &frame{
		set:   make([]uint64, words),
		idx:   make([]int, 0, words),
		floor: make(feature.Vector, dim),
		ceil:  make(feature.Vector, dim),
		vary:  make([]int, 0, dim),
	}
}

// indices returns the supporting set as ascending vector indices.
func (f *frame) indices() []int {
	if len(f.idx) == 0 {
		for w, word := range f.set {
			for ; word != 0; word &= word - 1 {
				f.idx = append(f.idx, w<<6|bits.TrailingZeros64(word))
			}
		}
	}
	return f.idx
}

func newSearcher(vectors []feature.Vector, model *sigmodel.Model, minSup int, cp *runctl.Checkpoint) *searcher {
	n, dim := len(vectors), len(vectors[0])
	words := (n + 63) / 64
	slab := make([]uint8, n*dim)
	// Transpose 64 rows at a time, so each column write is sequential.
	for base := 0; base < n; base += 64 {
		rows := vectors[base:min(base+64, n)]
		for j := 0; j < dim; j++ {
			col := slab[j*n+base : j*n+base+len(rows)]
			for k, v := range rows {
				col[k] = v[j]
			}
		}
	}
	s := &searcher{kernel: &kernel{n: n, words: words, cols: make([][]uint8, dim), ge: make([][][]uint64, dim), model: model, minSup: minSup}, cp: cp}
	root := s.frame(0)
	total := 0
	for j := range s.cols {
		col := slab[j*n : (j+1)*n]
		lo, hi := col[0], col[0]
		for _, x := range col {
			lo = min(lo, x)
			hi = max(hi, x)
		}
		s.cols[j], root.floor[j], root.ceil[j] = col, lo, hi
		total += int(hi)
	}
	sets := make([]uint64, total*words)
	heads := make([][]uint64, total+dim)
	for j, col := range s.cols {
		c := int(root.ceil[j]) + 1
		ge := heads[:c:c]
		heads = heads[c:]
		for v := 1; v < c; v++ {
			ge[v], sets = sets[:words:words], sets[words:]
		}
		// Mark each vector at its own value, then fold every set into
		// the one below it.
		for idx, x := range col {
			if x > 0 {
				ge[x][idx>>6] |= 1 << (idx & 63)
			}
		}
		for v := len(ge) - 2; v >= 1; v-- {
			for w, word := range ge[v+1] {
				ge[v][w] |= word
			}
		}
		s.ge[j] = ge
	}
	return s
}

// frame returns the scratch of depth d, allocating it on first use.
func (s *searcher) frame(d int) *frame {
	for len(s.frames) <= d {
		s.frames = append(s.frames, newFrame(len(s.cols), s.words))
	}
	return s.frames[d]
}

// run searches from the floor of the whole database with the searcher's
// visit and fruitless; the frame visit sees is scratch, valid only
// during the call.
func (s *searcher) run() {
	root := s.frame(0)
	for w := range root.set {
		root.set[w] = ^uint64(0)
	}
	if tail := s.n & 63; tail != 0 {
		root.set[s.words-1] = 1<<tail - 1
	}
	root.size = s.n
	for j := range root.floor {
		if root.floor[j] != root.ceil[j] {
			root.vary = append(root.vary, j)
		}
	}
	s.search(0, 0)
}

// span returns the minimum and maximum of col over set, which lie
// within [lo0, hi0]; it stops once both reach those limits.
func span(col []uint8, set []int, lo0, hi0 uint8) (lo, hi uint8) {
	lo, hi = hi0, lo0
	for _, idx := range set {
		v := col[idx]
		lo = min(lo, v)
		hi = max(hi, v)
		if lo == lo0 && hi == hi0 {
			break
		}
	}
	return lo, hi
}

// and stores a AND b into dst and returns its population count.
func and(dst, a, b []uint64) int {
	a, b = a[:len(dst)], b[:len(dst)]
	n := 0
	for w := range dst {
		word := a[w] & b[w]
		dst[w] = word
		n += bits.OnesCount64(word)
	}
	return n
}

// subset reports whether a is a subset of b.
func subset(a, b []uint64) bool {
	b = b[:len(a)]
	for w, word := range a {
		if word&^b[w] != 0 {
			return false
		}
	}
	return true
}

// disjoint reports whether a and b share no element.
func disjoint(a, b []uint64) bool {
	b = b[:len(a)]
	for w, word := range a {
		if word&b[w] != 0 {
			return false
		}
	}
	return true
}

// bounds fills child's floor, ceiling and varying features, where
// child.set refines the set of parent. A feature constant over the
// parent's set is constant over child.set, so only the parent's varying
// features are examined. For a branch on position i it stops early,
// returning false, at the first feature j < i whose floor rises above
// the parent's: the duplicate-state test.
//
// The child's floor and ceiling on j lie between the parent's. The
// floor rises while child.set is a subset of ge[j][floor+1]; the
// ceiling falls while child.set misses ge[j][ceiling]. A set with fewer
// members than words is scanned as an index list instead.
func (s *searcher) bounds(child, parent *frame, i int) bool {
	x := parent.floor
	copy(child.floor, x)
	copy(child.ceil, x)
	child.vary = child.vary[:0]
	if child.size < s.words {
		set := child.indices()
		for _, j := range parent.vary {
			lo, hi := span(s.cols[j], set, x[j], parent.ceil[j])
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
	for _, j := range parent.vary {
		ge := s.ge[j]
		lo, hi := x[j], parent.ceil[j]
		if j == i {
			lo++ // the filter kept exactly ge[i][x_i+1]
		}
		for lo < hi && subset(child.set, ge[lo+1]) {
			if j < i {
				return false
			}
			lo++
		}
		for hi > lo && disjoint(child.set, ge[hi]) {
			hi--
		}
		child.floor[j], child.ceil[j] = lo, hi
		if lo != hi {
			child.vary = append(child.vary, j)
		}
	}
	return true
}

// search is FVMine(x, S, b) on the state in frames[d]: x is its closed
// vector, S its supporting set, b the first feature position to branch
// on. While a helper of the search's team waits, a branch that survives
// the prunes is given to it (donate) instead of searched here.
func (s *searcher) search(d, b int) {
	if s.stopped {
		return
	}
	s.states++
	if err := s.cp.Step(); err != nil {
		s.stop(err)
		return
	}
	f := s.frame(d)
	s.visit(f)
	f.ahead, f.gifts = 0, f.gifts[:0]
	next := 0 // the next of f.gifts to place
	// Lines 3-12: branch on each feature position from b. Where x_i is
	// the ceiling no y exceeds it, so only varying features can branch.
	child := s.frame(d + 1)
	for f.pos = 0; f.pos < len(f.vary); f.pos++ {
		i := f.vary[f.pos]
		switch {
		case i < b:
		case next < len(f.gifts) && f.gifts[next].pos == f.pos:
			s.placed(f.gifts[next].t)
			next++
		case f.pos < f.ahead || !s.branch(child, f, i):
		case s.split != nil && s.split.team.want.Load() > 0 && s.donate(d, child, i):
			child = s.frames[d+1]
		default:
			s.search(d+1, i)
			if s.stopped {
				// The branches given away still join, after this one.
				for _, g := range f.gifts[next:] {
					s.placed(g.t)
				}
				return
			}
		}
	}
}

// stop records why the search was cut short.
func (s *searcher) stop(err error) {
	s.stopped = true
	if se, ok := runctl.AsStop(err); ok {
		s.stopWhy = se.Reason
	}
}

// branch refines the state in f on position i into child, S' = {y in S :
// y_i > x_i}, and reports whether child survives the prunes.
func (s *searcher) branch(child, f *frame, i int) bool {
	child.size = and(child.set, f.set, s.ge[i][f.floor[i]+1])
	child.idx = child.idx[:0]
	// Support; then the duplicate state: the refined floor raised a
	// feature left of i, so the state is owned by an earlier branch; then
	// the ceiling prune: the most significant any descendant can get is
	// p-value(ceiling(S'), |S'|).
	return child.size >= s.minSup && s.bounds(child, f, i) && !s.fruitless(child.ceil, child.size)
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

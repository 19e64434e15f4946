// Package rwr implements the random-walk-with-restart feature extraction
// of §II-C: for each node of a graph, the stationary distribution of a
// walker that restarts at the node with probability alpha is converted
// into a distribution of traversed features and discretized into bins.
// This simulates sliding a window across the graph — one feature vector
// per node — while weighting features by proximity to the window center.
package rwr

import (
	"math"
	"sync"
	"sync/atomic"

	"graphsig/internal/feature"
	"graphsig/internal/graph"
	"graphsig/internal/runctl"
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
	// Tolerance is the L1 convergence threshold (default 1e-9). A
	// source may stop before either limit, once its discretized vector
	// is certain to be the one they give: on MOLT-4 ×400 that took 23.9
	// iterations per source. A graph of at most 64 nodes is solved
	// directly instead, and a source iterates only when the solve
	// cannot certify its vector, so no molecule of that corpus does.
	Tolerance float64
	// Workers bounds DatabaseVectors' fan-out, which runs on
	// runctl.Controller.FanOut (0 or negative = GOMAXPROCS). Output is
	// deterministic at any setting.
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
// vector of the window centered at start. It is the one-source case of
// the batched kernel behind GraphVectors and DatabaseVectors.
func Walk(g *graph.Graph, start int, fs *feature.Set, cfg Config) feature.Vector {
	cfg.fill()
	v := make(feature.Vector, fs.Len())
	w := getWalker(fs, cfg)
	w.walk(g, []int{start}, func(_ int, masses []float64) { discretizeInto(v, masses, cfg.Bins) })
	walkers.Put(w)
	return v
}

// maxBatch bounds how many sources one power iteration carries, so a
// walker's matrices stay at n×maxBatch entries on large graphs, and the
// size of the graphs walk solves directly, so the solve's n×n matrix
// does too.
const maxBatch = 64

// walker is the arena of the batched kernel; each worker or call takes
// one from the pool and keeps it for all the graphs it walks. Its
// matrices are node-major and source-minor: entry u*stride+k is node u's
// mass in the walk of active column k, so the inner loops run over
// independent sources.
type walker struct {
	cfg Config
	fs  *feature.Set

	// The graph being walked. Its features are numbered locally, in
	// order of first traversal: feats[l] is the set's index of local
	// feature l, and local[f] maps back (-1 for a feature g lacks).
	rowStart []int32   // the CSR's row starts, shared by in and slotFeat
	in       []int32   // in[rowStart[v]:rowStart[v+1]]: v's neighbours, ascending
	deg      []float64 // float64(deg(u))
	slotFeat []int32   // local feature a traversal of CSR slot i updates, or -1
	feats    []int32
	local    []int32
	cursor   []int32

	// u's distinct slot features, nodeFeat[featStart[u]:featStart[u+1]],
	// and how many of u's slots update each, in featMult.
	featStart []int32
	nodeFeat  []int32
	featMult  []float64

	// One batch. share holds (1-α)·p[u]/deg(u) for the current p; the
	// pass that computes next fills nshare for it. acc holds the
	// certificate's per-feature masses, local-feature-major; column k
	// is due for a certificate check once its delta drops below
	// wait[k], and sure[k] marks it certified this iteration.
	stride        int
	p, next       []float64
	share, nshare []float64
	delta, acc    []float64
	wait          []float64
	sure          []bool
	col           []int // col[k]: the batch position walking in column k
	live, starts  []int
	nodes         []int
	masses        []float64
}

var walkers = sync.Pool{New: func() any { return new(walker) }}

func getWalker(fs *feature.Set, cfg Config) *walker {
	w := walkers.Get().(*walker)
	w.fs, w.cfg = fs, cfg
	return w
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// walk runs RWR on g from every node in sources and calls emit with each
// source's index in sources and its feature masses, which are scratch
// valid only during the call. Sources are emitted in the order they
// freeze. It returns the power iterations run, summed over sources.
//
// A walk from every node of a graph of at most maxBatch nodes first
// solves the graph's system once (solve); only the sources its
// certificate refuses are iterated.
func (w *walker) walk(g *graph.Graph, sources []int, emit func(i int, masses []float64)) (iterations int64) {
	w.load(g)
	w.masses = grow(w.masses, w.fs.Len())
	w.live = w.live[:0]
	for i, s := range sources {
		if w.deg[s] > 0 {
			w.live = append(w.live, i)
			continue
		}
		clear(w.masses)
		emit(i, w.masses)
	}
	if n := len(w.deg); len(sources) == n && n <= maxBatch && len(w.live) > 0 {
		w.live = w.solve(sources, emit)
	}
	for lo := 0; lo < len(w.live); lo += maxBatch {
		batch := w.live[lo:min(lo+maxBatch, len(w.live))]
		w.starts = grow(w.starts, len(batch))
		for j, i := range batch {
			w.starts[j] = sources[i]
		}
		w.iterate(w.starts, func(j, k, iters int) {
			iterations += int64(iters)
			emit(batch[j], w.featureMasses(k))
		})
	}
	return iterations
}

// load builds g's pull structure and its slot→feature table.
func (w *walker) load(g *graph.Graph) {
	c := g.CSR()
	n := len(c.NodeLabels)
	w.rowStart = c.RowStart
	w.deg = grow(w.deg, n)
	w.in = grow(w.in, len(c.Nbr))
	w.slotFeat = grow(w.slotFeat, len(c.Nbr))
	w.cursor = grow(w.cursor, n)
	copy(w.cursor, c.RowStart[:n])
	w.featStart = grow(w.featStart, n+1)
	w.nodeFeat, w.featMult = w.nodeFeat[:0], w.featMult[:0]
	if len(w.local) != w.fs.Len() {
		w.local = make([]int32, w.fs.Len())
		for f := range w.local {
			w.local[f] = -1
		}
	}
	w.feats = w.feats[:0]
	for u := 0; u < n; u++ {
		lo, hi := c.RowStart[u], c.RowStart[u+1]
		w.deg[u] = float64(hi - lo)
		w.featStart[u] = int32(len(w.nodeFeat))
		lu := c.NodeLabels[u]
		for i := lo; i < hi; i++ {
			// The graph is undirected, so v's in-list is as long as its
			// row; filling it while u ascends leaves it sorted.
			v := c.Nbr[i]
			w.in[w.cursor[v]] = int32(u)
			w.cursor[v]++

			// A traversal u->v updates the edge-type feature when the
			// endpoint pair is in the set, otherwise the atom feature of
			// the node stepped onto (v).
			lv, f := c.NodeLabels[v], -1
			if fi, ok := w.fs.EdgeFeature(lu, lv, c.EdgeLabels[i]); ok {
				f = fi
			} else if fi, ok := w.fs.AtomFeature(lv); ok {
				f = fi
			}
			w.slotFeat[i] = -1
			if f >= 0 {
				if w.local[f] < 0 {
					w.local[f] = int32(len(w.feats))
					w.feats = append(w.feats, int32(f))
				}
				w.slotFeat[i] = w.local[f]
				w.countFeat(u, w.local[f])
			}
		}
	}
	w.featStart[n] = int32(len(w.nodeFeat))
	for _, f := range w.feats {
		w.local[f] = -1
	}
}

// countFeat counts one more slot of node u, the row being loaded, that
// updates local feature lf. Rows are a node's degree long, so a scan
// of the row's features so far is cheap.
func (w *walker) countFeat(u int, lf int32) {
	for j := int(w.featStart[u]); j < len(w.nodeFeat); j++ {
		if w.nodeFeat[j] == lf {
			w.featMult[j]++
			return
		}
	}
	w.nodeFeat = append(w.nodeFeat, lf)
	w.featMult = append(w.featMult, 1)
}

// certSlack is the certificates' allowance, in bins, for float rounding.
// The float iterates drift from exact arithmetic, the iteration's
// certificate normalizes by 1-α rather than by the summed outflow, and
// the solve's residual carries its own rounding; each moves a mass by
// far less than this.
const certSlack = 1e-9

// iterate computes the RWR stationary distribution from every node of
// starts (none isolated) by power iteration, p' = α·e_start + (1-α)·Pᵀp
// with uniform neighbour choice, and calls frozen(j, k, iters) once per
// source when column k of w.p holds the distribution from starts[j]
// after iters iterations, discretizing exactly as the distribution the
// tolerance stop would reach.
//
// Each source keeps the arithmetic of a one-source push sweep
// (for u ascending, next[v] += (1-α)·p[u]/deg(u) for each neighbour v):
// next[v] starts at [v==start]·α and pulls the same shares from v's
// neighbours in ascending u, which on a simple graph is the push order.
// The same pass over v sums the L1 delta per source in ascending node
// order and computes v's share for the next iteration.
//
// A source freezes at the first iteration where either its delta drops
// below the tolerance, which is where its push iteration stopped, or a
// certificate shows its discretized vector can no longer change. The
// iteration is an L1 contraction by β = 1-α, so after a step of delta δ
// the distribution is within c·δ of its limit p*, c = β/(1-β), and every
// feature mass moves by at most that much. The vector the tolerance stop
// emits is itself within c·max(Tolerance, 2β^(MaxIterations-1)) of p*.
// So once every Bins·mass lies farther than Bins·c·(δ + that) plus a
// float slack from its nearest x.5, both round alike (DESIGN.md §13).
func (w *walker) iterate(starts []int, frozen func(j, k, iters int)) {
	n, s := len(w.deg), len(starts)
	w.stride = s
	w.p, w.next = grow(w.p, n*s), grow(w.next, n*s)
	w.share, w.nshare = grow(w.share, n*s), grow(w.nshare, n*s)
	w.delta, w.col = grow(w.delta, s), grow(w.col, s)
	w.sure, w.acc = grow(w.sure, s), grow(w.acc, len(w.feats)*s)
	w.wait = grow(w.wait, s)
	clear(w.p)
	for k, v := range starts {
		w.p[v*s+k] = 1
		w.col[k] = k
	}
	w.shares()
	// A column's certificate margin is bins·c·(δ + reach) + slack; it can
	// pass only once that is below half a bin, i.e. δ < certDelta.
	bins, c, reach := w.bounds()
	certDelta := (0.5-certSlack)/(bins*c) - reach
	for k := range w.wait {
		w.wait[k] = certDelta
	}
	active := s
	for iter := 0; iter < w.cfg.MaxIterations && active > 0; iter++ {
		w.pull(starts, active)
		delta := w.delta[:active]
		w.p, w.next = w.next, w.p
		w.share, w.nshare = w.nshare, w.share
		sure := w.sure[:active]
		clear(sure)
		for k, d := range delta {
			if d < w.wait[k] {
				w.certify(delta, bins*c, bins*c*reach+certSlack)
				break
			}
		}
		// Freeze converged and certified columns, refilling each gap
		// from the last active column; descending k means that column
		// was already checked this round.
		for k := active - 1; k >= 0; k-- {
			if delta[k] >= w.cfg.Tolerance && !sure[k] {
				continue
			}
			frozen(w.col[k], k, iter+1)
			active--
			if k != active {
				for u := 0; u < n; u++ {
					w.p[u*s+k] = w.p[u*s+active]
					w.share[u*s+k] = w.share[u*s+active]
				}
				w.col[k] = w.col[active]
				w.wait[k] = w.wait[active]
			}
		}
	}
	for k := 0; k < active; k++ {
		frozen(w.col[k], k, w.cfg.MaxIterations)
	}
}

// bounds returns the certificates' constants: Bins, the contraction's
// c = β/(1-β), and reach = max(Tolerance, 2β^(MaxIterations-1)), how
// far the tolerance stop's own output can lie from the limit in L1.
func (w *walker) bounds() (bins, c, reach float64) {
	beta := 1 - w.cfg.Alpha
	return float64(w.cfg.Bins), beta / w.cfg.Alpha,
		max(w.cfg.Tolerance, 2*math.Pow(beta, float64(w.cfg.MaxIterations-1)))
}

// shares sets share[u][k] = (1-α)·p[u][k]/deg(u), the push loop's
// expression, for every column of w.p.
func (w *walker) shares() {
	s, beta := w.stride, 1-w.cfg.Alpha
	for u, d := range w.deg {
		if d == 0 {
			continue // nothing pulls from an isolated node
		}
		pu, su := w.p[u*s:u*s+s], w.share[u*s:u*s+s]
		su = su[:len(pu)]
		for k, x := range pu {
			su[k] = beta * x / d
		}
	}
}

// pull runs one iteration over the first active columns: column k's
// next is α·e_start + the shares over each node's in-list, with start
// = starts[col[k]], delta[k] is ‖next − p‖₁ summed in ascending node
// order, and nshare holds next's shares for the iteration after.
func (w *walker) pull(starts []int, active int) {
	s, alpha, beta := w.stride, w.cfg.Alpha, 1-w.cfg.Alpha
	p, next, share, nshare, delta := w.p, w.next, w.share, w.nshare, w.delta[:active]
	clear(next)
	clear(delta)
	for k, j := range w.col[:active] {
		next[starts[j]*s+k] = alpha
	}
	for v, d := range w.deg {
		nv := next[v*s : v*s+active]
		for _, u := range w.in[w.rowStart[v]:w.rowStart[v+1]] {
			su := share[int(u)*s : int(u)*s+active]
			su = su[:len(nv)]
			for k := range nv {
				nv[k] += su[k]
			}
		}
		if d == 0 {
			continue // isolated: no mass, and nothing pulls from it
		}
		pv, ns := p[v*s:v*s+active], nshare[v*s:v*s+active]
		pv, ns, delta := pv[:len(nv)], ns[:len(nv)], delta[:len(nv)]
		for k, x := range nv {
			delta[k] += math.Abs(x - pv[k])
			ns[k] = beta * x / d
		}
	}
}

// solve computes the RWR stationary distribution from every node of a
// graph of n ≤ maxBatch nodes at once, by solving M·X = α·I for
// M = I − (1-α)·Pᵀ, and emits each live source, walked as sources[i]
// for i in w.live, whose column the certificate accepts. It returns
// the live sources it refused, in order, for iterate.
//
// M's column u is e_u minus (1-α)/deg(u) on each neighbour of u, so
// every column's off-diagonal entries sum to 1-α < 1 in magnitude:
// M is strictly column diagonally dominant, and Gauss-Jordan needs no
// pivoting. The error of a computed column x is bounded by its
// residual r = α·e_s − M·x, which is one iteration's change from x:
// M⁻¹ = Σ (1-α)^t (Pᵀ)^t has L1 norm at most 1/α, so x lies within
// e = ‖r‖₁/α of the limit p*. A feature's mass and the total it is
// normalized by each move by at most e relative to the total, so the
// normalized mass moves by at most e/(1-e) ≤ 2e, and the certificate is
// iterate's with c·δ replaced by 2e (DESIGN.md §13).
func (w *walker) solve(sources []int, emit func(i int, masses []float64)) []int {
	n := len(w.deg)
	alpha, beta := w.cfg.Alpha, 1-w.cfg.Alpha
	w.stride = n
	m := grow(w.p, n*n)
	w.p = m
	clear(m)
	for v := 0; v < n; v++ {
		m[v*n+v] = 1
		for _, u := range w.in[w.rowStart[v]:w.rowStart[v+1]] {
			m[v*n+int(u)] = -beta / w.deg[u]
		}
	}
	invert(m, n)
	for i := range m {
		m[i] *= alpha
	}
	w.residuals()
	bins, c, reach := w.bounds()
	offset := bins*c*reach + certSlack
	refused := w.live[:0]
	for _, i := range w.live {
		if w.certain(sources[i], offset) {
			emit(i, w.masses)
			continue
		}
		refused = append(refused, i)
	}
	return refused
}

// residuals sets delta[k] = ‖α·e_k − M·x_k‖₁ for every column x_k of the
// n×n solution in w.p: one iteration from x_k, whose change is exactly
// that residual.
func (w *walker) residuals() {
	n := len(w.deg)
	w.next, w.share, w.nshare = grow(w.next, n*n), grow(w.share, n*n), grow(w.nshare, n*n)
	w.delta, w.col, w.starts = grow(w.delta, n), grow(w.col, n), grow(w.starts, n)
	for k := range w.col {
		w.col[k], w.starts[k] = k, k
	}
	w.shares()
	w.pull(w.starts, n)
}

// certain computes source s's feature masses from column s of the
// solution into w.masses and reports whether they round as the
// tolerance stop's do. The column lies within e = delta[s]/α of the
// limit, so each normalized mass lies within 2e of the limit's whenever
// the margin below is under half a bin; every
// bins·mass of the graph's features must lie farther than
// bins·2e + offset from its nearest x.5, where offset is
// bins·c·reach + slack as in iterate. Features the graph lacks have
// mass 0 in every column.
func (w *walker) certain(s int, offset float64) bool {
	bins := float64(w.cfg.Bins)
	margin := bins*2*w.delta[s]/w.cfg.Alpha + offset
	masses := w.featureMasses(s)
	for _, f := range w.feats {
		y := bins * masses[f]
		if math.Abs(y-math.Floor(y)-0.5) <= margin {
			return false
		}
	}
	return true
}

// invert overwrites the n×n row-major matrix a with its inverse by
// in-place Gauss-Jordan elimination without pivoting, which is sound
// for the diagonally dominant systems solve builds. Rows with a zero
// in the pivot column are skipped, so a block-diagonal a (one block
// per component) stays block-diagonal, its zeros exact.
func invert(a []float64, n int) {
	for k := 0; k < n; k++ {
		rk := a[k*n : k*n+n]
		inv := 1 / rk[k]
		rk[k] = 1
		for j := range rk {
			rk[j] *= inv
		}
		for i := 0; i < n; i++ {
			ri := a[i*n : i*n+n]
			f := ri[k]
			if i == k || f == 0 {
				continue
			}
			ri[k] = 0
			ri = ri[:len(rk)]
			for j, x := range rk {
				ri[j] -= f * x
			}
		}
	}
}

// certify sets w.sure[k] for each active column k (len(delta) of them)
// whose every bins·mass, read from w.share, lies farther than
// scale·delta[k] + offset from its nearest x.5. It sums the masses of
// all active columns in one node-major pass: share[u] is already node
// u's outflow per slot, so a feature's unnormalized mass is the sum over
// nodes of share times the node's slots that traverse it, and the
// outflows total 1-α.
func (w *walker) certify(delta []float64, scale, offset float64) {
	s, active := w.stride, len(delta)
	acc := w.acc[:len(w.feats)*active]
	clear(acc)
	for u, d := range w.deg {
		if d == 0 {
			continue
		}
		su := w.share[u*s : u*s+active]
		lo, hi := w.featStart[u], w.featStart[u+1]
		for j, f := range w.nodeFeat[lo:hi] {
			m := w.featMult[int(lo)+j]
			af := acc[int(f)*active : int(f)*active+active]
			af = af[:len(su)]
			for k, x := range su {
				af[k] += m * x
			}
		}
	}
	sure, wait := w.sure[:active], w.wait[:active]
	for k := range wait {
		wait[k] = 0.5
	}
	norm := float64(w.cfg.Bins) / (1 - w.cfg.Alpha)
	for l := range w.feats {
		af := acc[l*active : l*active+active]
		af = af[:len(wait)]
		for k, x := range af {
			y := norm * x
			wait[k] = min(wait[k], math.Abs(y-math.Floor(y)-0.5))
		}
	}
	for k, d := range delta {
		sure[k] = scale*d+offset < wait[k]
		wait[k] = (wait[k] - offset) / scale
	}
}

// featureMasses turns column k of w.p into a per-feature traversal
// distribution in w.masses.
func (w *walker) featureMasses(k int) []float64 {
	// At stationarity, a step departs node u with probability p[u]·(1-α)
	// and picks each incident edge with probability 1/deg(u).
	masses := w.masses
	clear(masses)
	beta := 1 - w.cfg.Alpha
	total := 0.0
	for u, d := range w.deg {
		pu := w.p[u*w.stride+k]
		if pu == 0 || d == 0 {
			continue
		}
		out := pu * beta / d
		for _, f := range w.slotFeat[w.rowStart[u]:w.rowStart[u+1]] {
			if f >= 0 {
				masses[w.feats[f]] += out
			}
			total += out
		}
	}
	// Normalize to a distribution over features (the paper's "continuous
	// distribution of features ... in the range [0,1]"). Only the graph's
	// own features carry mass.
	if total > 0 {
		for _, f := range w.feats {
			masses[f] /= total
		}
	}
	return masses
}

// Discretize maps continuous masses in [0,1] to bins: round(bins·v),
// matching the paper's example (0.07 -> 1, 0.34 -> 3 with 10 bins).
func Discretize(masses []float64, bins int) feature.Vector {
	v := make(feature.Vector, len(masses))
	discretizeInto(v, masses, bins)
	return v
}

func discretizeInto(v feature.Vector, masses []float64, bins int) {
	for i, m := range masses {
		v[i] = bin(m, bins)
	}
}

// bin is round(bins·m), clamped to a byte.
func bin(m float64, bins int) uint8 {
	b := int(math.Round(float64(bins) * m))
	if b < 0 {
		b = 0
	}
	if b > 255 {
		b = 255
	}
	return uint8(b)
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
	cfg.fill()
	out := make([]feature.Vector, g.NumNodes())
	w := getWalker(fs, cfg)
	w.graphVectors(g, func(v int, vec feature.Vector) { out[v] = vec })
	walkers.Put(w)
	return out
}

// graphVectors walks from every node of g and calls put with each node
// and its vector. The vectors of one graph share one allocation. It
// returns the power iterations run, summed over nodes.
func (w *walker) graphVectors(g *graph.Graph, put func(v int, vec feature.Vector)) int64 {
	n, dim := g.NumNodes(), w.fs.Len()
	slab := make([]uint8, n*dim)
	w.nodes = grow(w.nodes, n)
	for v := range w.nodes {
		w.nodes[v] = v
	}
	return w.walk(g, w.nodes, func(v int, masses []float64) {
		// The slab is zero, and only the graph's own features carry mass.
		vec := feature.Vector(slab[v*dim : (v+1)*dim : (v+1)*dim])
		for _, f := range w.feats {
			vec[f] = bin(masses[f], w.cfg.Bins)
		}
		put(v, vec)
	})
}

// DatabaseVectors converts an entire database into feature space: RWR on
// every node of every graph (Algorithm 2, lines 3-4). Work is spread
// across cfg.Workers goroutines (default GOMAXPROCS), one graph at a
// time; output order is deterministic (by graph, then node). It also
// returns the power iterations run, one per source per iteration, which
// core counts as obs.MRWRIterations; a source the solve certifies runs
// none.
func DatabaseVectors(db []*graph.Graph, fs *feature.Set, cfg Config) ([]NodeVector, int64) {
	cfg.fill()
	offsets := make([]int, len(db)+1)
	for i, g := range db {
		offsets[i+1] = offsets[i] + g.NumNodes()
	}
	out := make([]NodeVector, offsets[len(db)])
	// A nil controller never stops, so every graph is vectorized. Each
	// graph borrows a walker from the pool, which keeps one per P warm.
	var ctl *runctl.Controller
	var iterations atomic.Int64
	ctl.FanOut(len(db), cfg.Workers, func() func(int) bool {
		return func(gi int) bool {
			g, base := db[gi], offsets[gi]
			wk := getWalker(fs, cfg)
			iterations.Add(wk.graphVectors(g, func(v int, vec feature.Vector) {
				out[base+v] = NodeVector{GraphID: gi, NodeID: v, Label: g.NodeLabel(v), Vec: vec}
			}))
			walkers.Put(wk)
			return true
		}
	})
	return out, iterations.Load()
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

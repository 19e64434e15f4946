// Package core implements the GraphSig algorithm (Algorithm 2 of the
// paper): convert every graph region to a feature vector by RWR, mine
// significant closed sub-feature vectors per source-node label with
// FVMine, group the regions supporting each significant vector, cut
// radius-bounded subgraphs around them, and run maximal frequent-subgraph
// mining with a high threshold on each group. Groups without a common
// subgraph produce nothing and vanish — the false-positive pruning of
// §IV-B — and every reported subgraph is re-validated by isomorphism-
// based support counting in graph space.
package core

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphsig/internal/chem"
	"graphsig/internal/dfscode"
	"graphsig/internal/feature"
	"graphsig/internal/fsg"
	"graphsig/internal/fvmine"
	"graphsig/internal/graph"
	"graphsig/internal/gspan"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
	"graphsig/internal/rwr"
	"graphsig/internal/sigmodel"
)

// MinerKind selects the frequent-subgraph miner used on region groups.
type MinerKind int

const (
	// MinerFSG uses the apriori-style miner, as the paper does.
	MinerFSG MinerKind = iota
	// MinerGSpan uses the pattern-growth miner instead (ablation).
	MinerGSpan
)

// Config carries the GraphSig parameters. Defaults() reproduces Table IV.
type Config struct {
	// Alpha is the RWR restart probability (Table IV: 0.25).
	Alpha float64
	// Bins is the RWR discretization bin count (paper: 10).
	Bins int
	// MaxPvalue is the FVMine p-value threshold (Table IV: 0.1).
	MaxPvalue float64
	// MinFreqPct is the FVMine support threshold as a percentage of the
	// per-label vector set (Table IV: 0.1%).
	MinFreqPct float64
	// MinSupportFloor is the absolute lower bound on the FVMine support
	// threshold, guarding tiny inputs (default 3).
	MinSupportFloor int
	// CutoffRadius bounds the subgraph cut around each supporting node
	// (Table IV: 8).
	CutoffRadius int
	// FSMFreqPct is the frequency threshold for maximal FSM on each
	// group, in percent (Table IV: 80).
	FSMFreqPct float64
	// TopAtoms is the number of most frequent atoms whose pairwise edge
	// types become features (§II-B: 5).
	TopAtoms int
	// Miner selects the group FSM implementation (paper: FSG).
	Miner MinerKind
	// MaxVectorsPerLabel bounds how many significant vectors per source
	// label proceed to group mining, most significant first (0 =
	// unbounded; default 50). Bounds work on very dense inputs.
	MaxVectorsPerLabel int
	// TopKPerLabel, when > 0, switches FVMine to threshold-free top-k
	// mining: the k most significant closed vectors per label are kept
	// regardless of MaxPvalue, with the search bound tightening to the
	// running k-th best. Useful when no sensible p-value threshold is
	// known in advance.
	TopKPerLabel int
	// MaxGroupSize caps the number of region windows per group fed to
	// maximal FSM; larger supports are subsampled deterministically
	// (0 = unbounded; default 100).
	MaxGroupSize int
	// MaxPatternEdges bounds mined pattern size (0 = unbounded).
	MaxPatternEdges int
	// Parallelism bounds worker fan-out in the parallel stages — RWR,
	// per-label FVMine, Phase-3 group mining, and support verification
	// (0 or negative = GOMAXPROCS). Results are identical at any
	// setting; only wall-clock changes. The jobs server leaves it unset,
	// so mines running at once share the host through the Go scheduler
	// and a lone mine uses all of it. Excluded from CacheKey: it is a
	// runtime control, not part of the answer.
	Parallelism int
	// Resume, when non-nil, is a full Phase-3 snapshot — ResumeChain
	// of the parts a previous run of the same (database, config)
	// emitted through its checkpoint sink: Mine skips re-mining the
	// committed group prefix and replays its recorded outcomes, so the
	// final Result is byte-identical to an uninterrupted run. A snapshot
	// that does not match this run's identity (MineKey or group-list
	// hash) is rejected — counted on obs.MResumeRejected — and the mine
	// starts from scratch. Excluded from CacheKey: resuming is a
	// runtime control, not part of the answer.
	Resume *ResumeState
	// CheckpointEvery sets the snapshot granularity when the controller
	// carries a checkpoint sink (runctl.Options.CheckpointSink): one
	// snapshot part per CheckpointEvery groups committed in order
	// (0 = DefaultCheckpointEvery). Without a sink no snapshots are
	// built and Phase 3 pays nothing. Excluded from CacheKey.
	CheckpointEvery int
	// Deadline aborts the mine when exceeded (zero = none); the result
	// is flagged Truncated with a Degradation report. Ignored when Ctl
	// is set.
	Deadline time.Time
	// Budgets bounds per-stage work (FVMine states, miner steps, VF2
	// nodes); zero fields are unbounded. Ignored when Ctl is set.
	Budgets runctl.Budgets
	// Ctl, when non-nil, is the run controller the mine observes —
	// supply one to share cancellation and budgets with a caller (e.g.
	// an HTTP handler) or to cancel the mine through a context. When
	// nil, Mine builds one from Deadline, Budgets and Metrics.
	Ctl *runctl.Controller
	// Metrics, when non-nil, receives per-stage operational metrics
	// (span counters, work units, duration histograms — see
	// internal/obs). Ignored when Ctl is set: the controller's registry
	// wins, so a job-owned mine reports into its owner's registry.
	Metrics *obs.Registry
	// DBFingerprint, when non-empty, is graph.Fingerprint of the
	// database being mined, precomputed by the caller — a jobs manager
	// that hashed the corpus once at startup, or a store manifest that
	// carries it on disk. Mine uses it as the checkpoint/resume identity
	// instead of rehashing the whole database per run. Excluded from
	// CacheKey: it names the database, not the parameters; MineKey
	// composes the two explicitly.
	DBFingerprint string
	// Alphabet names atom labels in reports (optional).
	Alphabet *graph.Alphabet
	// FeatureSet overrides the feature set (nil = chemistry set built
	// from the database).
	FeatureSet *feature.Set
	// SkipVerify skips the final graph-space support verification
	// (ablation/profiling only; verified support is part of the paper's
	// method).
	SkipVerify bool
	// Vectorizer selects how regions become feature vectors. The paper
	// uses RWR; plain window counting is the §II-C ablation that loses
	// proximity information.
	Vectorizer VectorizerKind
}

// VectorizerKind selects the region-to-vector transform.
type VectorizerKind int

const (
	// VectorizerRWR is the paper's random walk with restart (§II-C).
	VectorizerRWR VectorizerKind = iota
	// VectorizerWindowCounts counts feature occurrences in the radius
	// window without proximity weighting (ablation).
	VectorizerWindowCounts
)

// Defaults returns the paper's Table IV configuration.
func Defaults() Config {
	return Config{
		Alpha:              0.25,
		Bins:               10,
		MaxPvalue:          0.1,
		MinFreqPct:         0.1,
		MinSupportFloor:    3,
		CutoffRadius:       8,
		FSMFreqPct:         80,
		TopAtoms:           5,
		Miner:              MinerFSG,
		MaxVectorsPerLabel: 50,
		MaxGroupSize:       100,
		Alphabet:           chem.Alphabet(),
	}
}

// Subgraph is one mined significant subgraph with its provenance.
type Subgraph struct {
	// Graph is the pattern.
	Graph *graph.Graph
	// Canonical is the pattern's canonical DFS-code key.
	Canonical string
	// SourceLabel is the node label whose vector group produced it.
	SourceLabel graph.Label
	// VectorPValue and VectorLogPValue carry the significance of the
	// describing sub-feature vector (the paper's significance measure).
	VectorPValue    float64
	VectorLogPValue float64
	// VectorSupport is the supporting-region count of the vector.
	VectorSupport int
	// GroupSize is the number of region windows mined for the pattern.
	GroupSize int
	// GroupSupport is the pattern's frequency within its group.
	GroupSupport int
	// Support is the verified graph-space support across the database.
	// Meaningful only when Unverified is false.
	Support int
	// Frequency is Support / |DB|; meaningful only when Unverified is
	// false.
	Frequency float64
	// Unverified reports that graph-space verification did not run for
	// this pattern — SkipVerify was set, the verification stage was cut
	// short (deadline, budget, cancellation), or a verify worker
	// panicked. It distinguishes "support unknown" from a true support
	// of zero.
	Unverified bool
}

// Profile records where GraphSig's time went (Fig 10's three phases),
// read from the mine's stage spans: RWR is features + rwr, FSM is the
// group span (Phase 3's wall time), the others their namesake spans.
type Profile struct {
	RWR             time.Duration
	FeatureAnalysis time.Duration
	FSM             time.Duration
	Verify          time.Duration
}

// Result is the outcome of a GraphSig mine.
type Result struct {
	Subgraphs []Subgraph
	Profile   Profile
	// VectorsMined counts significant sub-feature vectors across labels.
	VectorsMined int
	// GroupsMined counts region groups that went through maximal FSM.
	GroupsMined int
	// GroupsPruned counts groups dropped as false positives (no frequent
	// subgraph at the FSM threshold).
	GroupsPruned int
	// GroupErrors counts groups whose mining worker panicked; each is
	// isolated into a Degradation stage report instead of crashing the
	// process.
	GroupErrors int
	// Truncated reports that the mine was cut short — see Degradation
	// for which stage, why, and how much work completed.
	Truncated bool
	// Degradation is the trust contract of a partial result: stage,
	// reason and per-stage completion counts. Zero value (Truncated
	// false) means the result is complete.
	Degradation runctl.Degradation
}

// BuildFeatureSet returns the feature set Mine uses for db under cfg:
// cfg.FeatureSet when supplied, otherwise the chemistry set (§II-B) built
// from the database.
func BuildFeatureSet(db []*graph.Graph, cfg Config) *feature.Set {
	fillConfig(&cfg)
	if cfg.FeatureSet != nil {
		return cfg.FeatureSet
	}
	return feature.ChemistrySet(db, cfg.Alphabet, cfg.TopAtoms)
}

// VectorGroup is one significant sub-feature vector with its provenance:
// the source-node label whose group produced it and the exact supporting
// regions.
type VectorGroup struct {
	Label graph.Label
	Sig   fvmine.Significant
	// Nodes are the (graph, node) regions supporting the vector.
	Nodes []rwr.NodeVector
}

// SignificantVectors runs only the feature-space half of GraphSig
// (Alg 2 lines 3-7): RWR over the database and FVMine per source label
// under global empirical priors. The classifier of §V trains on its
// output. It returns the groups, the feature set used, and whether the
// search was truncated (deadline, cancellation, or budget).
func SignificantVectors(db []*graph.Graph, cfg Config) ([]VectorGroup, *feature.Set, bool) {
	fillConfig(&cfg)
	ctl := ControllerFor(cfg)
	fs := cfg.FeatureSet
	if fs == nil {
		fs = feature.ChemistrySet(db, cfg.Alphabet, cfg.TopAtoms)
	}
	vectors := computeVectors(db, fs, cfg, ctl)
	groups := significantVectorGroups(vectors, cfg, ctl)
	return groups, fs, ctl.Report().Truncated
}

// rwrChunk is how many graphs the RWR phase vectorizes between
// controller checks; overshoot past a deadline is bounded by one
// chunk's worth of random walks.
const rwrChunk = 32

// computeVectors turns every node of every graph into a feature vector
// with the configured vectorizer. On truncation it returns the vectors
// of the database prefix processed so far and records the partial
// completion on the controller.
func computeVectors(db []*graph.Graph, fs *feature.Set, cfg Config, ctl *runctl.Controller) []rwr.NodeVector {
	cp := ctl.Checkpoint(runctl.StageRWR)
	if cfg.Vectorizer == VectorizerWindowCounts {
		var out []rwr.NodeVector
		for gid, g := range db {
			if err := cp.Force(); err != nil {
				ctl.RecordStop(runctl.StageRWR, int64(gid), int64(len(db)), "graphs vectorized (window counts)")
				return out
			}
			for v := 0; v < g.NumNodes(); v++ {
				out = append(out, rwr.NodeVector{
					GraphID: gid,
					NodeID:  v,
					Label:   g.NodeLabel(v),
					Vec:     rwr.WindowCounts(g, v, cfg.CutoffRadius, fs, cfg.Bins),
				})
			}
		}
		return out
	}
	var out []rwr.NodeVector
	iterations := ctl.Metrics().Counter(obs.MRWRIterations)
	for base := 0; base < len(db); base += rwrChunk {
		if err := cp.Force(); err != nil {
			ctl.RecordStop(runctl.StageRWR, int64(base), int64(len(db)), "graphs vectorized")
			return out
		}
		end := base + rwrChunk
		if end > len(db) {
			end = len(db)
		}
		vecs, iters := rwr.DatabaseVectors(db[base:end], fs, rwr.Config{Alpha: cfg.Alpha, Bins: cfg.Bins, Workers: cfg.Parallelism})
		iterations.Add(iters)
		for i := range vecs {
			vecs[i].GraphID += base
		}
		out = append(out, vecs...)
	}
	return out
}

// significantVectorGroups mines significant closed sub-feature vectors
// per source label. Priors are empirical over the *whole* vector database
// (§III): a region vector's significance is judged against random
// vectors drawn from all of D, not just its own label group — a rare
// atom's homogeneous contexts must not look "expected" among themselves.
func significantVectorGroups(vectors []rwr.NodeVector, cfg Config, ctl *runctl.Controller) []VectorGroup {
	allVecs := make([]feature.Vector, len(vectors))
	for i, nv := range vectors {
		allVecs[i] = nv.Vec
	}
	globalModel := sigmodel.New(allVecs)
	byLabel := map[graph.Label][]int{}
	for i, nv := range vectors {
		byLabel[nv.Label] = append(byLabel[nv.Label], i)
	}
	labels := make([]graph.Label, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool { return labels[i] < labels[j] })

	// Label groups are independent: mine them in parallel, then assemble
	// in sorted label order so the output stays deterministic. A panic
	// in one label's mine degrades only that label's group (recorded on
	// the controller); the rest of the mine proceeds.
	perLabel := make([][]VectorGroup, len(labels))
	var statesMined, labelsTrunc atomic.Int64
	mineLabel := func(li int) {
		label := labels[li]
		defer func() {
			if r := recover(); r != nil {
				ctl.Recovered(runctl.StageFVMine, fmt.Sprintf("label %d group worker", label), r)
			}
		}()
		idxs := byLabel[label]
		vecs := make([]feature.Vector, len(idxs))
		for i, idx := range idxs {
			vecs[i] = vectors[idx].Vec
		}
		minSup := supportThreshold(cfg, len(vecs))
		var sig []fvmine.Significant
		if cfg.TopKPerLabel > 0 {
			sig = fvmine.MineTopK(vecs, cfg.TopKPerLabel, minSup, globalModel, ctl)
		} else {
			mres := fvmine.Mine(vecs, fvmine.Options{
				MinSupport:    minSup,
				MaxPvalue:     cfg.MaxPvalue,
				Model:         globalModel,
				SkipZeroFloor: true,
				Ctl:           ctl,
			})
			statesMined.Add(int64(mres.StatesExplored))
			if mres.Truncated {
				labelsTrunc.Add(1)
			}
			sig = mres.Vectors
			fvmine.SortBySignificance(sig)
			if cfg.MaxVectorsPerLabel > 0 && len(sig) > cfg.MaxVectorsPerLabel {
				sig = sig[:cfg.MaxVectorsPerLabel]
			}
		}
		out := make([]VectorGroup, 0, len(sig))
		for _, s := range sig {
			g := VectorGroup{Label: label, Sig: s}
			for _, vi := range s.SupportIdx {
				g.Nodes = append(g.Nodes, vectors[idxs[vi]])
			}
			out = append(out, g)
		}
		perLabel[li] = out
	}
	started := ctl.FanOut(len(labels), cfg.Parallelism, func() func(int) bool {
		return func(li int) bool { mineLabel(li); return true }
	})
	var groups []VectorGroup
	for li := range perLabel {
		groups = append(groups, perLabel[li]...)
	}
	if ctl.Stopped() || labelsTrunc.Load() > 0 {
		ctl.RecordStop(runctl.StageFVMine, statesMined.Load(), 0,
			fmt.Sprintf("%d of %d label groups truncated, %d not started",
				labelsTrunc.Load(), len(labels), len(labels)-started))
	}
	return groups
}

func fillConfig(cfg *Config) {
	d := Defaults()
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 {
		cfg.Alpha = d.Alpha
	}
	if cfg.Bins <= 0 {
		cfg.Bins = d.Bins
	}
	if cfg.MaxPvalue <= 0 {
		cfg.MaxPvalue = d.MaxPvalue
	}
	if cfg.MinFreqPct <= 0 {
		cfg.MinFreqPct = d.MinFreqPct
	}
	if cfg.MinSupportFloor <= 0 {
		cfg.MinSupportFloor = d.MinSupportFloor
	}
	if cfg.CutoffRadius <= 0 {
		cfg.CutoffRadius = d.CutoffRadius
	}
	if cfg.FSMFreqPct <= 0 {
		cfg.FSMFreqPct = d.FSMFreqPct
	}
	if cfg.TopAtoms <= 0 {
		cfg.TopAtoms = d.TopAtoms
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
}

func supportThreshold(cfg Config, setSize int) int {
	s := int(math.Ceil(cfg.MinFreqPct / 100 * float64(setSize)))
	if s < cfg.MinSupportFloor {
		s = cfg.MinSupportFloor
	}
	return s
}

// groupNodes returns the regions of grp that Phase 3 cuts windows
// around: all supporting nodes, or a MaxGroupSize subsample of them.
// The window table plans each group's windows through it once.
func groupNodes(grp VectorGroup, cfg Config) []rwr.NodeVector {
	if cfg.MaxGroupSize > 0 && len(grp.Nodes) > cfg.MaxGroupSize {
		return subsample(grp.Nodes, cfg.MaxGroupSize)
	}
	return grp.Nodes
}

// subsample deterministically picks k evenly spaced elements.
func subsample(nodes []rwr.NodeVector, k int) []rwr.NodeVector {
	out := make([]rwr.NodeVector, 0, k)
	step := float64(len(nodes)) / float64(k)
	for i := 0; i < k; i++ {
		out = append(out, nodes[int(float64(i)*step)])
	}
	return out
}

// groupOutcome is one group's Phase-3 result, produced by a pool worker
// and folded into Result serially so counters and the best-pattern
// merge stay in group order regardless of completion order.
type groupOutcome struct {
	// windows is the region-window count after subsampling.
	windows int
	// mined: the group passed the size check and entered maximal FSM
	// (counts toward GroupsMined even when it then panicked or mined
	// nothing, matching the serial accounting).
	mined bool
	// pruned: too few windows for the FSM threshold, or FSM found no
	// common subgraph (the paper's false-positive pruning).
	pruned bool
	// panicked: the group's worker or miner panicked; recorded on the
	// controller, surfaces as a GroupError.
	panicked bool
	// err: reading a window's graph failed. The mine returns the error of
	// the first such group; it is never a GroupError and is never
	// checkpointed.
	err      error
	patterns []dfscode.Pattern
}

// DefaultCheckpointEvery is the resumable-snapshot granularity when
// Config.CheckpointEvery is zero: one snapshot per 8 committed groups.
// Groups are the unit of lost work on a crash, so this bounds re-mining
// after restart to at most 8 groups plus whatever was in flight.
const DefaultCheckpointEvery = 8

// checkpointer tracks the in-order commit frontier of Phase-3 group
// outcomes and emits a resumable snapshot part each time the frontier
// advances by `every` groups. Workers finish out of order; the frontier
// only covers the contiguous committed prefix, which is exactly what a
// resumed run can safely replay. All state is guarded by mu, so a
// worker's outcome write (made before its commit call) happens-before
// any snapshot read of that slot.
type checkpointer struct {
	mu       sync.Mutex
	done     []bool
	frontier int
	lastEmit int
	every    int
	emit     func(done int, outcomes []groupOutcome)
	outcomes []groupOutcome
}

func newCheckpointer(n, start, every int, emit func(int, []groupOutcome)) *checkpointer {
	c := &checkpointer{done: make([]bool, n), frontier: start, lastEmit: start, every: every, emit: emit}
	for i := 0; i < start; i++ {
		c.done[i] = true
	}
	return c
}

// attach hands the checkpointer the live outcome slice before workers
// start; snapshots read only outcomes[:frontier].
func (c *checkpointer) attach(outcomes []groupOutcome) {
	if c != nil {
		c.outcomes = outcomes
	}
}

// commit marks group gi complete and emits a snapshot part when the
// contiguous frontier has advanced far enough. The emit callback runs
// under the lock: serialization of the groups committed since the last
// part plus one journal fsync every `every` groups, a deliberate trade
// of a short worker stall for a bounded re-mining window after a crash.
func (c *checkpointer) commit(gi int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[gi] = true
	for c.frontier < len(c.done) && c.done[c.frontier] {
		c.frontier++
	}
	if c.frontier-c.lastEmit >= c.every {
		c.lastEmit = c.frontier
		c.emit(c.frontier, c.outcomes[:c.frontier])
	}
}

// mineGroups fans Phase 3 out over cfg.Parallelism FanOut workers
// reading one window table, filled by a database-ordered sweep before
// any group launches. It returns one outcome per launched group (launch
// stops, in group order, once the controller trips or a group's window
// read fails) plus the launch count; outcomes[launched:] are zero. A
// resumed prefix is copied in verbatim and never re-mined — its groups
// count as launched, and their windows are not cut — and each newly
// finished group is committed to the checkpointer (nil = no snapshots)
// unless its window read failed.
func mineGroups(fetch func(int) (*graph.Graph, error), groups []VectorGroup, cfg Config, ctl *runctl.Controller, resumed []groupOutcome, ckpt *checkpointer) ([]groupOutcome, int) {
	outcomes := make([]groupOutcome, len(groups))
	start := copy(outcomes, resumed)
	ckpt.attach(outcomes)
	wt := newWindowTable(fetch, groups[start:], cfg)
	wt.sweep(cfg.Parallelism, ctl)
	launched := ctl.FanOut(wt.launchable(ctl), cfg.Parallelism, func() func(int) bool {
		return func(i int) bool {
			gi := start + i
			outcomes[gi] = mineOneGroup(groups[gi], cfg, ctl, wt, i)
			if outcomes[gi].err != nil {
				return false
			}
			ckpt.commit(gi)
			return true
		}
	})
	wt.book(launched, ctl.Metrics())
	return outcomes, start + launched
}

// mineOneGroup runs maximal FSM on group wi's windows in the table,
// keeping its group-mine span balanced: the span is ended or failed
// here, even on panic, so the started == completed + degraded
// invariant survives fan-out.
func mineOneGroup(grp VectorGroup, cfg Config, ctl *runctl.Controller, wt *windowTable, wi int) (out groupOutcome) {
	var fsmSpan runctl.StageSpan
	defer func() {
		if r := recover(); r != nil {
			// mineMaximalIsolated catches miner panics; this barrier
			// catches the rest (a panic stored in a window slot) so one
			// bad group cannot bring the pool down. Fail is idempotent,
			// and a no-op on a span never started.
			ctl.Recovered(runctl.StageGroup, fmt.Sprintf("group worker for label %d (%d regions)", grp.Label, len(grp.Nodes)), r)
			fsmSpan.Fail(runctl.ReasonPanic, 0)
			out.panicked = true
		}
	}()
	windows, err := wt.windows(wi)
	if err != nil {
		out.err = err
		return out
	}
	out.windows = len(windows)
	minSup := int(math.Ceil(cfg.FSMFreqPct / 100 * float64(len(windows))))
	if minSup < 2 {
		minSup = 2
	}
	if len(windows) < minSup {
		out.pruned = true
		return out
	}
	out.mined = true
	fsmSpan = ctl.StartStage(runctl.StageGroupMine)
	maximal, panicked := mineMaximalIsolated(windows, minSup, cfg, ctl, grp.Label)
	if panicked {
		fsmSpan.Fail(runctl.ReasonPanic, 0)
		out.panicked = true
		return out
	}
	fsmSpan.End(int64(len(maximal)))
	if len(maximal) == 0 {
		out.pruned = true
		return out
	}
	out.patterns = maximal
	return out
}

// mineMaximalIsolated runs one group's maximal FSM behind a panic
// barrier: a crash in the miner becomes a structured per-group error on
// the controller instead of killing the process.
func mineMaximalIsolated(windows []*graph.Graph, minSup int, cfg Config, ctl *runctl.Controller, label graph.Label) (out []dfscode.Pattern, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			ctl.Recovered(runctl.StageGroupMine, fmt.Sprintf("FSM worker for label %d group (%d windows)", label, len(windows)), r)
			out, panicked = nil, true
		}
	}()
	return mineMaximal(windows, minSup, cfg, ctl), false
}

func mineMaximal(windows []*graph.Graph, minSup int, cfg Config, ctl *runctl.Controller) []dfscode.Pattern {
	// Only maximal patterns survive this stage, and a non-closed pattern
	// is never maximal (its closure witness is an equal-support — hence
	// frequent — strict super-pattern), so both miners run in closed-only
	// mode: non-closed patterns are suppressed at emission and whole DFS
	// subtrees prune on equivalent occurrences. Each miner decides
	// maximality from the one-edge extension keys it already counts for
	// the closure test, and returns its maximal patterns as
	// Result.Maximal. Pruned subtrees charge nothing: the miner-step
	// budget is drawn once per explored state, and pruning
	// deterministically removes states, so budget trips stay
	// reproducible at a fixed configuration. A truncated mine lists only
	// the patterns whose keys were all counted.
	if cfg.Miner == MinerGSpan {
		return gspan.Mine(windows, gspan.Options{
			MinSupport: minSup,
			MaxEdges:   cfg.MaxPatternEdges,
			Ctl:        ctl,
			ClosedOnly: true,
		}).Maximal
	}
	return fsg.Mine(windows, fsg.Options{
		MinSupport: minSup,
		MaxEdges:   cfg.MaxPatternEdges,
		Ctl:        ctl,
		ClosedOnly: true,
	}).Maximal
}

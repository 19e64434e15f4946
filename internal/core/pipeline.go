package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphsig/internal/feature"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
	"graphsig/internal/runctl"
	"graphsig/internal/rwr"
)

// Source is a graph database read positionally: an in-memory Slice or
// a lazy store reader.
type Source interface {
	Len() int
	Graph(i int) (*graph.Graph, error)
}

// Slice adapts an in-memory database to Source.
type Slice []*graph.Graph

// Len returns the database size.
func (s Slice) Len() int { return len(s) }

// Graph returns position i.
func (s Slice) Graph(i int) (*graph.Graph, error) { return s[i], nil }

// Fingerprint returns graph.Fingerprint of the database behind src,
// folding its graphs in position order.
func Fingerprint(src Source) (string, error) {
	f := graph.NewFingerprinter()
	for i := 0; i < src.Len(); i++ {
		g, err := src.Graph(i)
		if err != nil {
			return "", fmt.Errorf("core: fingerprint graph %d: %w", i, err)
		}
		f.Add(g)
	}
	return f.Sum(), nil
}

// Mine runs GraphSig over an in-memory database: the one-shard case of
// MineSource, whose reads cannot fail.
func Mine(db []*graph.Graph, cfg Config) Result {
	res, _ := MineSource(Slice(db), nil, cfg)
	return res
}

// MineSource runs GraphSig (Algorithm 2) over src. The per-graph passes
// — feature statistics, RWR and support verification — visit the
// database shard by shard: shards lists each shard's database positions
// in ascending order (a shard may be empty), and each pass loads one
// shard at a time, so at most one shard's graphs are resident. Every
// decision that reads a distribution (significance priors, FVMine
// thresholds, group mining, pattern dedup) runs once over pooled
// inputs, which is what keeps answers identical at any shard count.
// Nil shards is the in-memory case: one shard holding the whole
// database in order. An error means a read from src failed; truncation
// (deadline, budget, cancellation) is reported in Result.Degradation
// instead.
func MineSource(src Source, shards [][]int, cfg Config) (Result, error) {
	fillConfig(&cfg)
	var res Result
	n := src.Len()
	if n == 0 {
		return res, nil
	}
	ctl := ControllerFor(cfg)
	whole := shards == nil
	if whole {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		shards = [][]int{all}
	}
	load := func(s int) ([]*graph.Graph, error) {
		graphs, ok := src.(Slice)
		if !ok || !whole {
			graphs = make(Slice, len(shards[s]))
			for k, pos := range shards[s] {
				g, err := src.Graph(pos)
				if err != nil {
					return nil, fmt.Errorf("core: load graph %d: %w", pos, err)
				}
				graphs[k] = g
			}
		}
		return graphs, nil
	}
	// each visits the shards in order until the run stops.
	each := func(fn func(graphs []*graph.Graph)) error {
		for s := range shards {
			if ctl.Stopped() {
				return nil
			}
			graphs, err := load(s)
			if err != nil {
				return err
			}
			fn(graphs)
		}
		return nil
	}

	// Phase 1: the feature set from merged per-shard statistics, then RWR
	// over every node of every graph (Alg 2 lines 3-4). Result.Profile
	// is read from the stage spans, the mine's only clock.
	featSpan := ctl.StartStage(runctl.StageFeatures)
	fs := cfg.FeatureSet
	if fs == nil {
		merged := feature.NewStats()
		err := each(func(graphs []*graph.Graph) {
			st := feature.NewStats()
			for _, g := range graphs {
				st.Add(g)
			}
			merged.Merge(st)
		})
		if err != nil {
			featSpan.Fail(runctl.ReasonPanic, 0)
			return res, err
		}
		fs = feature.ChemistrySetFromStats(merged, cfg.Alphabet, cfg.TopAtoms)
	}
	res.Profile.RWR = featSpan.End(int64(fs.Len()))
	rwrSpan := ctl.StartStage(runctl.StageRWR)
	var vectors []rwr.NodeVector
	for s, members := range shards {
		if ctl.Stopped() {
			break
		}
		graphs, err := load(s)
		if err != nil {
			rwrSpan.Fail(runctl.ReasonPanic, 0)
			return res, err
		}
		vecs := computeVectors(graphs, fs, cfg, ctl)
		if whole {
			vectors = vecs
			continue
		}
		for _, v := range vecs {
			v.GraphID = members[v.GraphID]
			vectors = append(vectors, v)
		}
	}
	if len(shards) > 1 {
		// Each node's vector depends only on its own graph, so pooling
		// per-shard vectors in database order reproduces the unsharded
		// vector slice exactly.
		sort.Slice(vectors, func(i, j int) bool {
			if vectors[i].GraphID != vectors[j].GraphID {
				return vectors[i].GraphID < vectors[j].GraphID
			}
			return vectors[i].NodeID < vectors[j].NodeID
		})
	}
	res.Profile.RWR += rwrSpan.End(int64(len(vectors)))

	// Phase 2: group by source label, FVMine per group (lines 5-7), with
	// priors over the pooled vectors of the whole database.
	fvSpan := ctl.StartStage(runctl.StageFVMine)
	groups := significantVectorGroups(vectors, cfg, ctl)
	res.Profile.FeatureAnalysis = fvSpan.End(int64(len(groups)))
	res.VectorsMined = len(groups)

	// Phase 3: cut regions and run maximal FSM per group (lines 8-13).
	// Windows are read through src on demand. The checkpoint/resume
	// identity needs the database fingerprint; trust a caller-supplied
	// one (jobs manager, store manifest) and hash the database only when
	// nobody did it already. One StageGroup span times the whole phase;
	// the StageGroupMine spans inside it are its busy time.
	groupSpan := ctl.StartStage(runctl.StageGroup)
	dbFP := cfg.DBFingerprint
	if dbFP == "" && (cfg.Resume != nil || ctl.WantsCheckpoints()) {
		var err error
		if dbFP, err = Fingerprint(src); err != nil {
			groupSpan.Fail(runctl.ReasonPanic, 0)
			return res, err
		}
	}
	patterns, stats, err := minePatterns(src.Graph, dbFP, groups, cfg, ctl)
	res.GroupsMined = stats.GroupsMined
	res.GroupsPruned = stats.GroupsPruned
	res.GroupErrors = stats.GroupErrors
	if err != nil {
		res.Profile.FSM = groupSpan.Fail(runctl.ReasonPanic, 0)
		return res, err
	}
	res.Profile.FSM = groupSpan.End(int64(stats.windows))

	// Final: verify support in graph space and order the answer set.
	if !cfg.SkipVerify {
		if res.Profile.Verify, err = verify(each, n, patterns, cfg.Parallelism, ctl); err != nil {
			return res, err
		}
	}
	for _, sg := range patterns {
		res.Subgraphs = append(res.Subgraphs, *sg)
	}
	SortSubgraphs(res.Subgraphs)
	res.Degradation = ctl.Report()
	res.Truncated = res.Degradation.Truncated
	return res, nil
}

// verify counts every pattern's graph-space support shard by shard and
// sums: shards partition the database, so the per-shard counts add up to
// the exact support. Within a shard, FanOut workers claim patterns in
// order and share the controller's VF2 budget, and a prefilter over the
// shard lets them reject graphs that provably cannot contain a pattern
// before VF2. A panic while counting one pattern leaves only that
// pattern Unverified. If the run was cut short, every pattern stays
// Unverified: under a shared budget, which counts finished before the
// trip depends on scheduling, and a partial verification would make the
// answer differ between runs and parallelism levels. It returns the
// verify span's duration.
func verify(each func(func([]*graph.Graph)) error, n int, patterns []*Subgraph, workers int, ctl *runctl.Controller) (time.Duration, error) {
	span := ctl.StartStage(runctl.StageVerify)
	supports := make([]atomic.Int64, len(patterns))
	incomplete := make([]atomic.Bool, len(patterns))
	if len(patterns) > 0 {
		err := each(func(graphs []*graph.Graph) {
			pf := isomorph.NewPrefilter(graphs).Meter(ctl.Metrics(), "verify")
			var mu sync.Mutex
			var cps []*runctl.Checkpoint
			ctl.FanOut(len(patterns), workers, func() func(int) bool {
				cp := ctl.Checkpoint(runctl.StageVerify)
				mu.Lock()
				cps = append(cps, cp)
				mu.Unlock()
				return func(i int) bool {
					if !countOne(pf, patterns[i], &supports[i], cp, ctl) {
						incomplete[i].Store(true)
					}
					return true
				}
			})
			// Every worker has returned; count the steps each took since
			// its last check.
			for _, cp := range cps {
				cp.Flush()
			}
		})
		if err != nil {
			return span.Fail(runctl.ReasonPanic, 0), err
		}
	}
	verified := 0
	if !ctl.Stopped() {
		for i, sg := range patterns {
			if incomplete[i].Load() {
				continue
			}
			sg.Support = int(supports[i].Load())
			sg.Frequency = float64(sg.Support) / float64(n)
			sg.Unverified = false
			verified++
		}
	}
	d := span.End(int64(verified))
	if verified < len(patterns) {
		ctl.RecordStop(runctl.StageVerify, int64(verified), int64(len(patterns)), "patterns support-verified")
	}
	return d, nil
}

// countOne adds one pattern's support within one shard behind a panic
// barrier. It reports false when the count did not finish; a partial
// count is only a lower bound, so the pattern must stay Unverified.
func countOne(pf *isomorph.Prefilter, sg *Subgraph, total *atomic.Int64, cp *runctl.Checkpoint, ctl *runctl.Controller) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			ctl.Recovered(runctl.StageVerify, "support verification of one pattern", r)
			ok = false
		}
	}()
	sup, err := pf.SupportCtl(sg.Graph, cp)
	if err != nil {
		return false
	}
	total.Add(int64(sup))
	return true
}

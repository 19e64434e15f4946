package core

import (
	"sort"

	"graphsig/internal/feature"
	"graphsig/internal/graph"
	"graphsig/internal/runctl"
	"graphsig/internal/rwr"
)

// This file is the stage-level surface of the miner: the phases of
// MineSource, exported one by one. The pipeline does not call them — it
// runs the phases itself, over a Source — and they stay because the
// benchmark in perfbench/ compiles against them to time each layer from
// outside. Each takes plain data in, returns plain data out, and
// observes cfg.Ctl when set.

// Normalized returns cfg with the same defaulting Mine itself applies
// (Table IV values for zero fields, GOMAXPROCS parallelism), so a caller
// composing the stages can normalize once and give every stage the same
// parameters.
func Normalized(cfg Config) Config {
	fillConfig(&cfg)
	return cfg
}

// ControllerFor returns the run controller a mine under cfg observes:
// cfg.Ctl when supplied, else a fresh one from the config's deadline,
// budgets and metrics. Callers that split a mine across stages must pin
// one controller into cfg.Ctl so cancellation, budgets and degradation
// reports stay shared.
func ControllerFor(cfg Config) *runctl.Controller {
	if cfg.Ctl != nil {
		return cfg.Ctl
	}
	return runctl.New(runctl.Options{Deadline: cfg.Deadline, Budgets: cfg.Budgets, Metrics: cfg.Metrics})
}

// ComputeVectors runs the RWR phase over db: one feature vector per
// node of every graph, under a StageRWR span. GraphIDs in the result
// index into db. Per-graph vectors depend only on that graph's content,
// which is what makes this stage scatterable.
func ComputeVectors(db []*graph.Graph, fs *feature.Set, cfg Config) []rwr.NodeVector {
	fillConfig(&cfg)
	ctl := ControllerFor(cfg)
	span := ctl.StartStage(runctl.StageRWR)
	vecs := computeVectors(db, fs, cfg, ctl)
	span.End(int64(len(vecs)))
	return vecs
}

// SignificantGroups mines significant closed sub-feature vectors per
// source label, under a StageFVMine span. The significance model's
// priors are empirical over ALL the vectors given — this is the stage
// that must see the pooled database, never one shard's slice: a vector
// judged against a shard-local background gets a shard-dependent
// p-value, and the paper's significance measure is defined against the
// whole of D.
func SignificantGroups(vectors []rwr.NodeVector, cfg Config) []VectorGroup {
	fillConfig(&cfg)
	ctl := ControllerFor(cfg)
	span := ctl.StartStage(runctl.StageFVMine)
	groups := significantVectorGroups(vectors, cfg, ctl)
	span.End(int64(len(groups)))
	return groups
}

// PatternStats carries Phase-3 accounting out of MinePatterns.
type PatternStats struct {
	// GroupsMined counts groups that entered maximal FSM.
	GroupsMined int
	// GroupsPruned counts groups dropped as false positives.
	GroupsPruned int
	// GroupErrors counts isolated group-worker panics.
	GroupErrors int
	// windows counts the region windows cut by the groups mined in this
	// run (a restored group cut none): the StageGroup span's work units.
	windows int
}

// MinePatterns runs Phase 3: cut region windows around each group's
// supporting nodes (through fetch, so the database may live behind a
// lazy store reader), run maximal FSM per group, and dedup patterns by
// minimum DFS code keeping the most significant provenance, under a
// StageGroup span. Patterns return sorted by canonical code, all marked Unverified — graph-space
// support verification is the caller's (schedulable, shardable) step.
// Checkpoint/resume (cfg.Resume, a controller checkpoint sink) needs a
// database identity and therefore requires cfg.DBFingerprint; with an
// empty fingerprint both are disabled rather than mis-keyed.
func MinePatterns(fetch func(int) *graph.Graph, groups []VectorGroup, cfg Config) ([]*Subgraph, PatternStats) {
	fillConfig(&cfg)
	ctl := ControllerFor(cfg)
	span := ctl.StartStage(runctl.StageGroup)
	patterns, stats, _ := minePatterns(func(i int) (*graph.Graph, error) { return fetch(i), nil }, cfg.DBFingerprint, groups, cfg, ctl)
	span.End(int64(stats.windows))
	return patterns, stats
}

// SortSubgraphs orders an answer set the way Mine reports it: most
// significant vector first, then larger patterns, then canonical code.
// The key is a pure function of each subgraph, so sorting a merged
// multi-shard set reproduces the single-process order.
func SortSubgraphs(subs []Subgraph) {
	sort.Slice(subs, func(i, j int) bool {
		a, b := subs[i], subs[j]
		if a.VectorLogPValue != b.VectorLogPValue {
			return a.VectorLogPValue < b.VectorLogPValue
		}
		if a.Graph.NumEdges() != b.Graph.NumEdges() {
			return a.Graph.NumEdges() > b.Graph.NumEdges()
		}
		return a.Canonical < b.Canonical
	})
}

// minePatterns is Phase 3 plus the best-pattern merge. Outcomes are
// folded in group order regardless of worker completion order, so the
// dedup tie-break (lowest vector log-p wins, first group wins ties) is
// deterministic at any parallelism. A failed window read fails the
// whole phase, before any group is mined, with the error of the lowest
// failing database position.
func minePatterns(fetch func(int) (*graph.Graph, error), dbFP string, groups []VectorGroup, cfg Config, ctl *runctl.Controller) ([]*Subgraph, PatternStats, error) {
	var stats PatternStats
	// Durability hooks: when the caller installed a checkpoint sink or
	// handed us a snapshot, bind this run's identity (database + config
	// + group list) so snapshots can only resume the exact same mine.
	outcomes := make([]groupOutcome, len(groups))
	var ckpt *checkpointer
	if (cfg.Resume != nil || ctl.WantsCheckpoints()) && dbFP != "" {
		key := MineKey(dbFP, cfg)
		gh := groupsHash(groups)
		restoreSnapshot(outcomes, cfg.Resume, key, gh, ctl.Metrics())
		if ctl.WantsCheckpoints() {
			every := cfg.CheckpointEvery
			if every <= 0 {
				every = DefaultCheckpointEvery
			}
			// Each part carries only the groups mined since the last part,
			// so a resumed run never re-emits the groups its caller's chain
			// already holds. A part that fails to encode is dropped, never
			// blocking mining: a resume mines its groups again.
			ckpt = &checkpointer{every: every, emit: func(gis []int) {
				persisted, err := persistOutcomes(outcomes, gis)
				if err != nil {
					return
				}
				buf, err := EncodeResumeState(&ResumeState{
					V: persistVersion, Key: key, GroupsHash: gh,
					Groups: gis, Outcomes: persisted,
				})
				if err == nil {
					ctl.EmitCheckpoint(buf)
				}
			}}
		}
	}
	windows, err := mineGroups(fetch, groups, cfg, ctl, outcomes, ckpt)
	if err != nil {
		return nil, stats, err
	}
	stats.windows = windows
	best := map[string]*Subgraph{}
	done := 0
	for gi := range outcomes {
		o := &outcomes[gi]
		grp := groups[gi]
		if !o.done {
			continue
		}
		done++
		if o.mined {
			stats.GroupsMined++
		}
		if o.panicked {
			stats.GroupErrors++
			continue
		}
		if o.pruned {
			stats.GroupsPruned++
			continue
		}
		for _, p := range o.patterns {
			// Both miners emit each pattern as its minimum DFS code, and a
			// restored snapshot recomputes it, so the code is the
			// canonical key and the graph built from it is byte-stable
			// across runs and a crash/resume (cmd/serve's crash test).
			key := p.Code.String()
			cur, ok := best[key]
			if !ok || grp.Sig.LogPValue < cur.VectorLogPValue {
				best[key] = &Subgraph{
					Graph:           p.Code.Graph(),
					Canonical:       key,
					SourceLabel:     grp.Label,
					VectorPValue:    grp.Sig.PValue,
					VectorLogPValue: grp.Sig.LogPValue,
					VectorSupport:   grp.Sig.Support,
					GroupSize:       o.windows,
					GroupSupport:    p.Support,
				}
			}
		}
	}
	if done < len(groups) {
		ctl.RecordStop(runctl.StageGroupMine, int64(done), int64(len(groups)), "vector groups mined")
	}
	ordered := make([]*Subgraph, 0, len(best))
	for _, sg := range best {
		ordered = append(ordered, sg)
	}
	// Map iteration order is random; sort by canonical code so the
	// verification feed order is reproducible. Under a VF2 budget the
	// feed order decides *which* patterns get verified before the budget
	// trips — unsorted, two identical runs could verify different
	// subsets.
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Canonical < ordered[j].Canonical })
	// Every pattern starts unverified; a verifier clears the flag only
	// on a completed support count, so a drained (worker panic) or
	// cut-off pattern is distinguishable from one whose true support is
	// zero.
	for _, sg := range ordered {
		sg.Unverified = true
	}
	return ordered, stats, nil
}

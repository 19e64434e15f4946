package core

import (
	"fmt"
	"sort"

	"graphsig/internal/dfscode"
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
}

// MinePatterns runs Phase 3: cut region windows around each group's
// supporting nodes (through fetch, so the database may live behind a
// lazy store reader), run maximal FSM per group, and dedup patterns by
// minimum DFS code keeping the most significant provenance. Patterns
// return sorted by canonical code, all marked Unverified — graph-space
// support verification is the caller's (schedulable, shardable) step.
// Checkpoint/resume (cfg.Resume, a controller checkpoint sink) needs a
// database identity and therefore requires cfg.DBFingerprint; with an
// empty fingerprint both are disabled rather than mis-keyed.
func MinePatterns(fetch func(int) *graph.Graph, groups []VectorGroup, cfg Config) ([]*Subgraph, PatternStats) {
	fillConfig(&cfg)
	ctl := ControllerFor(cfg)
	patterns, stats, _ := minePatterns(func(i int) (*graph.Graph, error) { return fetch(i), nil }, cfg.DBFingerprint, groups, cfg, ctl)
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
// deterministic at any parallelism. A failed window read fails the whole
// phase with the error of the first failing group in group order.
func minePatterns(fetch func(int) (*graph.Graph, error), dbFP string, groups []VectorGroup, cfg Config, ctl *runctl.Controller) ([]*Subgraph, PatternStats, error) {
	var stats PatternStats
	// Durability hooks: when the caller installed a checkpoint sink or
	// handed us a snapshot, bind this run's identity (database + config
	// + group list) so snapshots can only resume the exact same mine.
	var resumed []groupOutcome
	var ckpt *checkpointer
	if (cfg.Resume != nil || ctl.WantsCheckpoints()) && dbFP != "" {
		key := MineKey(dbFP, cfg)
		gh := groupsHash(groups)
		resumed = validResumePrefix(cfg.Resume, key, gh, len(groups), ctl.Metrics())
		if ctl.WantsCheckpoints() {
			every := cfg.CheckpointEvery
			if every <= 0 {
				every = DefaultCheckpointEvery
			}
			// persisted is the wire form of the prefix already snapshotted.
			// The checkpointer runs emit under its lock, in frontier order,
			// so each snapshot encodes only the outcomes committed since
			// the last one instead of re-rendering the whole prefix.
			var persisted []PersistedOutcome
			ckpt = newCheckpointer(len(groups), len(resumed), every, func(done int, outcomes []groupOutcome) {
				fresh, err := persistOutcomes(outcomes[len(persisted):done])
				if err != nil {
					return // unserializable snapshot: skip, never block mining
				}
				persisted = append(persisted, fresh...)
				buf, err := EncodeResumeState(&ResumeState{
					V: persistVersion, Key: key, GroupsHash: gh,
					Done: done, Outcomes: persisted,
				})
				if err != nil {
					return
				}
				ctl.EmitCheckpoint(buf)
			})
		}
	}
	outcomes, launched := mineGroups(fetch, groups, cfg, ctl, resumed, ckpt)
	// Every group before a failed one was launched, so the first failure
	// among the launched groups is the first in group order.
	for gi := 0; gi < launched; gi++ {
		if err := outcomes[gi].err; err != nil {
			return nil, stats, fmt.Errorf("core: vector group %d: %w", gi, err)
		}
	}
	if launched < len(groups) {
		ctl.RecordStop(runctl.StageGroupMine, int64(launched), int64(len(groups)), "vector groups mined")
	}
	best := map[string]*Subgraph{}
	for gi := 0; gi < launched; gi++ {
		o := &outcomes[gi]
		grp := groups[gi]
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
			if p.Graph.NumEdges() == 0 {
				continue
			}
			// Group miners number pattern vertices in discovery order,
			// which varies between processes; rematerializing from the
			// minimum DFS code makes the reported graph canonical, so the
			// answer set is byte-stable across runs and across a
			// crash/resume boundary (cmd/serve's crash test relies on it).
			code := dfscode.MinimumCode(p.Graph)
			key := code.String()
			cur, ok := best[key]
			if !ok || grp.Sig.LogPValue < cur.VectorLogPValue {
				best[key] = &Subgraph{
					Graph:           code.Graph(),
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

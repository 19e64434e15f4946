// Package shard partitions a graph database across N shards for the
// mining pipeline in internal/core.
//
// The pipeline itself is core.MineSource; this package supplies its
// plan. GraphSig's significance measure judges each region vector
// against empirical priors over the WHOLE vector database (§III) — a
// p-value computed against one shard's background is a different
// number, so running core.Mine per shard and unioning the answers would
// be wrong at any threshold. Only per-graph work scatters: feature
// statistics, RWR vectorization, and graph-space support counting. The
// pipeline visits the shards one at a time in those passes and pools
// their outputs; everything that reads a distribution runs once over the
// pooled inputs. Answers are therefore byte-identical to core.Mine at
// any shard count.
//
// Peak residency is one shard's graphs plus the pooled vectors in the
// shard passes, and the cut region windows in Phase 3 — with a
// store.Reader underneath, a corpus larger than RAM mines in bounded
// memory. Phase 3 reads its windows in one sweep in database order, so
// each graph is decoded once for it; the windows stay cached until
// Phase 3 ends. The reader's LRU keeps raw segment bytes and decodes
// one graph per read, so, unless the whole store fits in that LRU, no
// decoded graph outlives the pass that read it. A Coordinator keeps
// nothing between mines.
package shard

import (
	"fmt"
	"strconv"

	"graphsig/internal/core"
	"graphsig/internal/obs"
)

// Strategy selects how database positions map to shards.
type Strategy int

const (
	// Contiguous assigns position ranges: shard s holds an equal-share
	// contiguous run of graph positions. Best locality over a segment
	// store.
	Contiguous Strategy = iota
	// Hash assigns position i to shard i mod N.
	Hash
)

func (s Strategy) String() string {
	switch s {
	case Contiguous:
		return "contiguous"
	case Hash:
		return "hash"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Source is a graph database read positionally — an in-memory
// core.Slice or a lazy store.Reader.
type Source = core.Source

// Options configures a Coordinator.
type Options struct {
	// Shards is the partition count (minimum 1; 1 degenerates to an
	// out-of-core single-shard mine).
	Shards int
	// Strategy maps positions to shards (default Contiguous).
	Strategy Strategy
	// Fingerprint is the whole-database content fingerprint
	// (graph.Fingerprint). When empty, New computes it with one
	// streaming pass over the source; a store.Reader's manifest already
	// carries it, so store-backed callers pass it and skip the scan.
	Fingerprint string
	// Metrics, when non-nil, receives the per-shard member gauges and
	// the mine counter.
	Metrics *obs.Registry
}

// Coordinator is an immutable shard plan over one database. One
// coordinator serves many Mine calls, concurrently and under any
// configs.
type Coordinator struct {
	mines *obs.Counter
	src   Source
	fp    string
	plan  [][]int
}

// New plans a partition of src into opt.Shards shards.
func New(src Source, opt Options) (*Coordinator, error) {
	if opt.Shards < 1 {
		opt.Shards = 1
	}
	fp := opt.Fingerprint
	if fp == "" {
		var err error
		if fp, err = core.Fingerprint(src); err != nil {
			return nil, fmt.Errorf("shard: fingerprint scan: %w", err)
		}
	}
	plan := make([][]int, opt.Shards)
	n := src.Len()
	switch opt.Strategy {
	case Hash:
		for i := 0; i < n; i++ {
			s := i % opt.Shards
			plan[s] = append(plan[s], i)
		}
	default:
		per, extra := n/opt.Shards, n%opt.Shards
		pos := 0
		for s := range plan {
			count := per
			if s < extra {
				count++
			}
			for i := 0; i < count; i++ {
				plan[s] = append(plan[s], pos)
				pos++
			}
		}
	}
	for s, members := range plan {
		opt.Metrics.Gauge(obs.MShardGraphs, "shard", strconv.Itoa(s)).Set(int64(len(members)))
	}
	return &Coordinator{
		mines: opt.Metrics.Counter(obs.MShardMines),
		src:   src,
		fp:    fp,
		plan:  plan,
	}, nil
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.plan) }

// Mine mines the database through core's pipeline, scattering its
// per-graph passes over the shard plan. The Result is byte-identical to
// core.Mine over the same database and config at any shard count and
// either strategy. An error means a source read failed; truncation
// (deadline, budget, cancel) is reported in Result.Degradation.
func (c *Coordinator) Mine(cfg core.Config) (core.Result, error) {
	c.mines.Inc()
	cfg.DBFingerprint = c.fp
	return core.MineSource(c.src, c.plan, cfg)
}

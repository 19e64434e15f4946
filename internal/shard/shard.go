// Package shard partitions a graph database across N shards for the
// mining pipeline in internal/core, and caches each shard's RWR vectors.
//
// The pipeline itself is core.MineSource; this package supplies its
// plan and one hook. GraphSig's significance measure judges each region
// vector against empirical priors over the WHOLE vector database (§III)
// — a p-value computed against one shard's background is a different
// number, so running core.Mine per shard and unioning the answers would
// be wrong at any threshold. Only per-graph work scatters: feature
// statistics, RWR vectorization, and graph-space support counting. The
// pipeline visits the shards one at a time in those passes and pools
// their outputs; everything that reads a distribution runs once over the
// pooled inputs. Answers are therefore byte-identical to core.Mine at
// any shard count.
//
// Peak residency is one shard's graphs plus the pooled vectors — with a
// store.Reader underneath, a corpus larger than RAM mines in bounded
// memory. Per-shard RWR vectors are cached under the shard's content
// fingerprint: after an incremental append under the Hash strategy,
// unchanged shards hit their cache and only the shards that actually
// gained graphs re-vectorize.
package shard

import (
	"fmt"
	"strconv"
	"sync"

	"graphsig/internal/core"
	"graphsig/internal/obs"
	"graphsig/internal/rwr"
)

// Strategy selects how database positions map to shards.
type Strategy int

const (
	// Contiguous assigns position ranges: shard s holds an equal-share
	// contiguous run of graph positions. Best locality over a segment
	// store, but an append shifts every boundary, so all shard caches
	// invalidate.
	Contiguous Strategy = iota
	// Hash assigns position i to shard i mod N. An append only ever
	// adds members to shards, never moves existing ones, so shards
	// keep their cached vectors across appends except where new graphs
	// actually landed.
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
	// Metrics, when non-nil, receives per-shard gauges and the vector
	// cache counters.
	Metrics *obs.Registry
}

// Coordinator owns the shard plan and the per-shard vector cache. One
// coordinator serves many Mine calls (and many configs — the cache key
// includes the vectorization parameters). Safe for concurrent use.
type Coordinator struct {
	metrics *obs.Registry
	mines   *obs.Counter

	mu       sync.Mutex
	src      Source
	fp       string
	shards   int
	strategy Strategy
	plan     [][]int
	vecCache map[vecCacheKey][]rwr.NodeVector
}

// vecCacheKey scopes cached per-shard vectors to the exact shard
// content and the exact vectorization inputs. The shard fingerprint
// covers the shard's graphs in member order, byte for byte (cached
// vectors carry shard-local graph IDs, so positions need not match);
// the config key covers the feature set, alpha, bins, vectorizer and
// radius (it is the full mining CacheKey — coarser reuse across configs
// that differ only post-RWR is deliberately left on the table for
// safety).
type vecCacheKey struct {
	shardFP string
	cfgKey  string
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
	c := &Coordinator{
		metrics:  opt.Metrics,
		mines:    opt.Metrics.Counter(obs.MShardMines),
		src:      src,
		fp:       fp,
		shards:   opt.Shards,
		strategy: opt.Strategy,
		vecCache: map[vecCacheKey][]rwr.NodeVector{},
	}
	c.replan()
	return c, nil
}

// replan recomputes the member lists. Caller holds mu (or is New).
func (c *Coordinator) replan() {
	n := c.src.Len()
	plan := make([][]int, c.shards)
	switch c.strategy {
	case Hash:
		for i := 0; i < n; i++ {
			s := i % c.shards
			plan[s] = append(plan[s], i)
		}
	default:
		per, extra := n/c.shards, n%c.shards
		pos := 0
		for s := 0; s < c.shards; s++ {
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
	c.plan = plan
	for s, members := range plan {
		c.metrics.Gauge(obs.MShardGraphs, "shard", strconv.Itoa(s)).Set(int64(len(members)))
	}
}

// Reload swaps the database under the coordinator after an incremental
// append: new source, new whole-database fingerprint, new plan. The
// vector cache is kept — under the Hash strategy a shard that gained
// no graphs has an unchanged content fingerprint and hits it.
func (c *Coordinator) Reload(src Source, fingerprint string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.src = src
	c.fp = fingerprint
	c.replan()
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return c.shards }

// Fingerprint returns the whole-database fingerprint being served.
func (c *Coordinator) Fingerprint() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fp
}

// Members returns shard s's database positions (read-only).
func (c *Coordinator) Members(s int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plan[s]
}

// snapshot pins the plan a Mine runs against, so a concurrent Reload
// cannot shear one run's passes across two generations.
func (c *Coordinator) snapshot() (Source, string, [][]int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.src, c.fp, c.plan
}

// Mine mines the pinned database through core's pipeline, scattering
// its per-graph passes over the shard plan and serving each shard's RWR
// vectors through the cache. The Result is byte-identical to core.Mine
// over the same database and config at any shard count and either
// strategy. An error means a source read failed; truncation (deadline,
// budget, cancel) is reported in Result.Degradation.
func (c *Coordinator) Mine(cfg core.Config) (core.Result, error) {
	src, fp, plan := c.snapshot()
	c.mines.Inc()
	cfg.DBFingerprint = fp
	cfgKey := cfg.CacheKey()
	return core.MineSource(src, core.Scatter{
		Shards: plan,
		Vectors: func(s int, shardFP string, compute func() ([]rwr.NodeVector, bool, error)) ([]rwr.NodeVector, error) {
			return c.shardVectors(s, vecCacheKey{shardFP: shardFP, cfgKey: cfgKey}, compute)
		},
	}, cfg)
}

// shardVectors returns shard s's RWR vectors from cache when the shard's
// content and the mining config match a previous run, else computes and
// caches them. A truncated vectorization is partial; caching it would
// poison later complete runs.
func (c *Coordinator) shardVectors(s int, key vecCacheKey, compute func() ([]rwr.NodeVector, bool, error)) ([]rwr.NodeVector, error) {
	label := strconv.Itoa(s)
	c.mu.Lock()
	cached, ok := c.vecCache[key]
	c.mu.Unlock()
	if ok {
		c.metrics.Counter(obs.MShardVectorCacheHits, "shard", label).Inc()
		return cached, nil
	}
	c.metrics.Counter(obs.MShardVectorCacheMisses, "shard", label).Inc()
	vecs, complete, err := compute()
	if err == nil && complete {
		c.mu.Lock()
		c.vecCache[key] = vecs
		c.mu.Unlock()
	}
	return vecs, err
}

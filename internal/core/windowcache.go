package core

import (
	"sync"

	"graphsig/internal/graph"
	"graphsig/internal/obs"
)

// windowKey identifies one cut region. The radius is part of the key
// even though a single mine cuts at one radius only, so a cache can
// never serve a window cut at the wrong radius if it outlives a config.
type windowKey struct {
	graphID, nodeID, radius int
}

// windowEntry is one cache slot. The Once guarantees the cut runs
// exactly once even when several group workers miss on the same key
// concurrently; losers block until the winner's cut is ready.
type windowEntry struct {
	once sync.Once
	g    *graph.Graph
	err  error
}

// windowCache shares CutGraph results across vector groups. Regions
// supporting many significant vectors appear in many groups; without
// the cache each appearance pays a BFS cut of the same ball. Cached
// windows are shared read-only between groups — the miners never
// mutate their input graphs.
type windowCache struct {
	// fetch resolves a database position to its graph — a slice index
	// for an in-memory mine, a lazy segment load for a store-backed one.
	fetch  func(int) (*graph.Graph, error)
	radius int

	mu sync.Mutex
	m  map[windowKey]*windowEntry

	hits   *obs.Counter
	misses *obs.Counter
}

func newWindowCache(fetch func(int) (*graph.Graph, error), radius int, reg *obs.Registry) *windowCache {
	return &windowCache{
		fetch:  fetch,
		radius: radius,
		m:      make(map[windowKey]*windowEntry),
		hits:   reg.Counter(obs.MWindowCacheHits),
		misses: reg.Counter(obs.MWindowCacheMisses),
	}
}

// window returns the radius-bounded cut around (graphID, nodeID),
// cutting on first use, or the error reading graphID. Safe for
// concurrent use; the returned graph is shared and must be treated as
// read-only.
func (c *windowCache) window(graphID, nodeID int) (*graph.Graph, error) {
	k := windowKey{graphID: graphID, nodeID: nodeID, radius: c.radius}
	c.mu.Lock()
	e, ok := c.m[k]
	if !ok {
		e = &windowEntry{}
		c.m[k] = e
	}
	c.mu.Unlock()
	if ok {
		c.hits.Inc()
	} else {
		c.misses.Inc()
	}
	e.once.Do(func() {
		var g *graph.Graph
		if g, e.err = c.fetch(graphID); e.err == nil {
			e.g = g.CutGraph(nodeID, c.radius)
		}
	})
	return e.g, e.err
}

package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// windowKey identifies one cut region. The radius is part of the key
// even though a single mine cuts at one radius only, so a cache can
// never serve a window cut at the wrong radius if it outlives a config.
type windowKey struct {
	graphID, nodeID, radius int
}

// windowEntry is one cache slot. The Once guarantees the window is set
// exactly once — by the sweep or by the first lookup that finds it
// empty — and lookups that race on an empty slot block until the
// winner's cut is ready.
type windowEntry struct {
	once sync.Once
	g    *graph.Graph
	err  error
	// looked is set by the first lookup of the key, under the cache's
	// mutex; it, not whether the sweep already cut the window, decides
	// between a hit and a miss.
	looked bool
}

// windowCache shares CutGraph results across vector groups. Regions
// supporting many significant vectors appear in many groups; without
// the cache each appearance pays a BFS cut of the same ball. Cached
// windows are shared read-only between groups — the miners never
// mutate their input graphs.
//
// mineGroups fills the cache in one sweep (sweep) before any group
// looks a window up, so each source graph is fetched once and a store
// reader walks its segments in file order; window's lazy cut remains
// for the entries the sweep left empty (it was stopped, or a cut
// panicked). The hit and miss counters count lookups either way: the
// first lookup of a key is a miss, every later one a hit.
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

// entryLocked returns k's slot, creating an empty one. Caller holds mu.
func (c *windowCache) entryLocked(k windowKey) *windowEntry {
	e, ok := c.m[k]
	if !ok {
		e = &windowEntry{}
		c.m[k] = e
	}
	return e
}

// window returns the radius-bounded cut around (graphID, nodeID),
// cutting on first use, or the error reading graphID. Safe for
// concurrent use; the returned graph is shared and must be treated as
// read-only.
func (c *windowCache) window(graphID, nodeID int) (*graph.Graph, error) {
	k := windowKey{graphID: graphID, nodeID: nodeID, radius: c.radius}
	c.mu.Lock()
	e := c.entryLocked(k)
	repeat := e.looked
	e.looked = true
	c.mu.Unlock()
	if repeat {
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

// sweepGraph is one source graph's share of the window sweep: the
// distinct nodes whose windows the groups will look up.
type sweepGraph struct {
	graphID int
	nodes   []int
}

// sweepPlan lists the distinct windows groups will look up — the same
// groupNodes selection mineOneGroup makes — bucketed by graph in
// ascending database position.
func sweepPlan(groups []VectorGroup, cfg Config) []sweepGraph {
	var keys [][2]int
	for _, grp := range groups {
		for _, nv := range groupNodes(grp, cfg) {
			keys = append(keys, [2]int{nv.GraphID, nv.NodeID})
		}
	}
	slices.SortFunc(keys, func(a, b [2]int) int {
		if a[0] != b[0] {
			return a[0] - b[0]
		}
		return a[1] - b[1]
	})
	keys = slices.Compact(keys)
	var plan []sweepGraph
	for _, k := range keys {
		if n := len(plan); n == 0 || plan[n-1].graphID != k[0] {
			plan = append(plan, sweepGraph{graphID: k[0]})
		}
		last := &plan[len(plan)-1]
		last.nodes = append(last.nodes, k[1])
	}
	return plan
}

// sweep cuts every window in plan before any group looks one up.
// Workers claim whole graphs in plan (database) order, fetch each once,
// cut all of its windows and drop it; group lookups then hit. Over a
// store reader, fetching in group order loads a segment for every
// window whose segment the LRU has evicted; in database order each
// segment loads once. The sweep stops claiming graphs once the
// controller has stopped or a read has failed; what it leaves empty the
// group workers cut lazily, exactly as they would without a sweep. It
// reports false when a read failed.
func (c *windowCache) sweep(plan []sweepGraph, workers int, ctl *runctl.Controller) bool {
	var readFailed atomic.Bool
	ctl.FanOut(len(plan), workers, func() func(int) bool {
		return func(i int) bool {
			if c.cutGraph(plan[i]) {
				return true
			}
			readFailed.Store(true)
			return false
		}
	})
	return !readFailed.Load()
}

// cutGraph fetches one graph and fills the entries of its plan nodes,
// reporting false when the read failed. A read error fills every one of
// those entries, so the group that looks one up fails with it just as
// if it had read the graph itself. A panic while fetching or cutting
// fills nothing: the entries stay empty, a group worker that needs one
// cuts it lazily, and that worker's recovery reports the panic.
func (c *windowCache) cutGraph(sg sweepGraph) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = true
		}
	}()
	g, err := c.fetch(sg.graphID)
	cuts := make([]*graph.Graph, len(sg.nodes))
	if err == nil {
		for i, v := range sg.nodes {
			cuts[i] = g.CutGraph(v, c.radius)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, v := range sg.nodes {
		e := c.entryLocked(windowKey{graphID: sg.graphID, nodeID: v, radius: c.radius})
		e.once.Do(func() { e.g, e.err = cuts[i], err })
	}
	return err == nil
}

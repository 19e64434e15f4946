package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// windowSlot is one distinct (graph, node) region of a mine. Once its
// graph is cut it holds the window, or a panic recovered while fetching
// or cutting the graph.
type windowSlot struct {
	key   [2]int // graph, node
	g     *graph.Graph
	fault any
}

// windowTable holds the region windows of one mine's Phase 3. A region
// in many groups is cut once, and the groups share its window read-only
// (the miners never mutate their input graphs). sweep fills the table
// before any group starts; groups then read it without a lock.
type windowTable struct {
	// fetch resolves a database position to its graph — a slice index
	// for an in-memory mine, a lazy segment load for a store-backed one.
	fetch  func(int) (*graph.Graph, error)
	radius int
	slots  []windowSlot
	// runs[r]:runs[r+1] are the slots of the r-th graph in database
	// order.
	runs []int
	// groups lists each group's slots in groupNodes order.
	groups [][]int

	// fetched counts the runs the sweep has read; turn wakes the worker
	// whose run is next.
	turn    *sync.Cond
	fetched int
}

// newWindowTable plans the windows of groups: one slot per distinct
// region that groupNodes selects, and each group's list of slots.
func newWindowTable(fetch func(int) (*graph.Graph, error), groups []VectorGroup, cfg Config) *windowTable {
	type ref struct {
		key  [2]int
		slot *int
	}
	var refs []ref
	t := &windowTable{fetch: fetch, radius: cfg.CutoffRadius, groups: make([][]int, len(groups)), turn: sync.NewCond(new(sync.Mutex))}
	for gi, grp := range groups {
		nodes := groupNodes(grp, cfg)
		t.groups[gi] = make([]int, len(nodes))
		for i, nv := range nodes {
			refs = append(refs, ref{[2]int{nv.GraphID, nv.NodeID}, &t.groups[gi][i]})
		}
	}
	slices.SortFunc(refs, func(a, b ref) int {
		return cmp.Or(cmp.Compare(a.key[0], b.key[0]), cmp.Compare(a.key[1], b.key[1]))
	})
	for _, r := range refs {
		if n := len(t.slots); n == 0 || t.slots[n-1].key != r.key {
			if n == 0 || t.slots[n-1].key[0] != r.key[0] {
				t.runs = append(t.runs, n)
			}
			t.slots = append(t.slots, windowSlot{key: r.key})
		}
		*r.slot = len(t.slots) - 1
	}
	t.runs = append(t.runs, len(t.slots))
	return t
}

// sweep cuts every window, graph by graph in database order. Over a
// store reader each segment then loads once, where group order reloads
// every segment the LRU has evicted. It stops claiming graphs once a
// read fails or the controller stops; a stop cause is never cleared, so
// no group then launches to read a slot left uncut. It returns the
// error of the lowest database position whose read failed: FanOut
// claims graphs in ascending order and runs every graph it claims, so
// each graph below a failed one has been read.
func (t *windowTable) sweep(workers int, ctl *runctl.Controller) error {
	errs := make([]error, len(t.runs)-1)
	ctl.FanOut(len(errs), workers, func() func(int) bool {
		return func(r int) bool {
			errs[r] = t.cutRun(r)
			return errs[r] == nil
		}
	})
	if r := slices.IndexFunc(errs, func(err error) bool { return err != nil }); r >= 0 {
		return fmt.Errorf("core: window sweep: graph %d: %w", t.slots[t.runs[r]].key[0], errs[r])
	}
	return nil
}

// cutRun fetches the r-th graph once and cuts all of its windows,
// returning the read error. A panic while fetching or cutting is stored
// in every slot of the graph; the group that reads one re-raises it
// inside its own barrier, just as if it had cut the window itself.
func (t *windowTable) cutRun(r int) (err error) {
	run := t.slots[t.runs[r]:t.runs[r+1]]
	defer func() {
		if p := recover(); p != nil {
			for i := range run {
				run[i].fault = p
			}
			err = nil
		}
	}()
	g, err := t.fetchRun(r)
	if err != nil {
		return err
	}
	for i := range run {
		run[i].g = g.CutGraph(run[i].key[1], t.radius)
	}
	return nil
}

// fetchRun reads the r-th graph once every lower run has been read, so
// a store reader sees the sweep's reads in database order even when a
// worker lags, and its LRU never evicts a segment still to be read.
func (t *windowTable) fetchRun(r int) (*graph.Graph, error) {
	t.turn.L.Lock()
	for t.fetched < r {
		t.turn.Wait()
	}
	t.turn.L.Unlock()
	defer func() {
		t.turn.L.Lock()
		t.fetched++
		t.turn.L.Unlock()
		t.turn.Broadcast()
	}()
	return t.fetch(t.slots[t.runs[r]].key[0])
}

// windows returns group gi's windows in groupNodes order. A slot
// holding a panic re-raises it.
func (t *windowTable) windows(gi int) []*graph.Graph {
	out := make([]*graph.Graph, len(t.groups[gi]))
	for i, s := range t.groups[gi] {
		slot := &t.slots[s]
		if slot.fault != nil {
			panic(slot.fault)
		}
		out[i] = slot.g
	}
	return out
}

// book counts the window reads of the first launched groups: the first
// read of a slot is a miss, every later one a hit.
func (t *windowTable) book(launched int, reg *obs.Registry) {
	seen := make([]bool, len(t.slots))
	var reads, misses int64
	for _, slots := range t.groups[:launched] {
		for _, s := range slots {
			reads++
			if !seen[s] {
				seen[s] = true
				misses++
			}
		}
	}
	reg.Counter(obs.MWindowCacheMisses).Add(misses)
	reg.Counter(obs.MWindowCacheHits).Add(reads - misses)
}

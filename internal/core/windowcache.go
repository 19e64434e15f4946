package core

import (
	"cmp"
	"slices"

	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// windowSlot is one distinct (graph, node) region of a mine. Once its
// graph is cut it holds the window, the error reading the graph, or a
// panic recovered while fetching or cutting the graph.
type windowSlot struct {
	key   [2]int // graph, node
	run   int    // the graph's index in runs
	g     *graph.Graph
	err   error
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
	// order; cut[r] is set once that graph has been read.
	runs []int
	cut  []bool
	// groups lists each group's slots in groupNodes order.
	groups [][]int
}

// newWindowTable plans the windows of groups: one slot per distinct
// region that groupNodes selects, and each group's list of slots.
func newWindowTable(fetch func(int) (*graph.Graph, error), groups []VectorGroup, cfg Config) *windowTable {
	type ref struct {
		key  [2]int
		slot *int
	}
	var refs []ref
	t := &windowTable{fetch: fetch, radius: cfg.CutoffRadius, groups: make([][]int, len(groups))}
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
			t.slots = append(t.slots, windowSlot{key: r.key, run: len(t.runs) - 1})
		}
		*r.slot = len(t.slots) - 1
	}
	t.runs = append(t.runs, len(t.slots))
	t.cut = make([]bool, len(t.runs)-1)
	return t
}

// sweep cuts every window, graph by graph in database order. Over a
// store reader each segment then loads once, where group order reloads
// every segment the LRU has evicted. It stops claiming graphs once a
// read fails or the controller stops; a stop cause is never cleared, so
// no group then launches to read a slot left uncut.
func (t *windowTable) sweep(workers int, ctl *runctl.Controller) {
	ctl.FanOut(len(t.cut), workers, func() func(int) bool { return t.cutRun })
}

// cutRun fetches the r-th graph once and cuts all of its windows,
// reporting false when the read failed. A read error, or a panic while
// fetching or cutting, is stored in every slot of the graph; the group
// that reads one fails with the error or re-raises the panic inside its
// own barrier, just as if it had cut the window itself.
func (t *windowTable) cutRun(r int) (ok bool) {
	t.cut[r] = true
	run := t.slots[t.runs[r]:t.runs[r+1]]
	defer func() {
		if p := recover(); p != nil {
			for i := range run {
				run[i].fault = p
			}
			ok = true
		}
	}()
	g, err := t.fetch(run[0].key[0])
	for i := range run {
		if run[i].err = err; err == nil {
			run[i].g = g.CutGraph(run[i].key[1], t.radius)
		}
	}
	return err == nil
}

// launchable returns how many groups, in group order, may launch after
// the sweep: all of them, or those up to and including the first that
// reads a failed slot, so a failed read fails the mine with exactly
// that group's error. The groups before it may need graphs the sweep,
// stopped by the failure, never reached; those are read here, one at a
// time in group order — the only reads outside the sweep, made only
// after a read has failed — unless the controller has stopped.
func (t *windowTable) launchable(ctl *runctl.Controller) int {
	for gi, slots := range t.groups {
		for _, s := range slots {
			if r := t.slots[s].run; !t.cut[r] {
				if ctl.Stopped() {
					return 0
				}
				t.cutRun(r)
			}
			if t.slots[s].err != nil {
				return gi + 1
			}
		}
	}
	return len(t.groups)
}

// windows returns group gi's windows in groupNodes order, or the error
// of its first failed slot. A slot holding a panic re-raises it.
func (t *windowTable) windows(gi int) ([]*graph.Graph, error) {
	out := make([]*graph.Graph, len(t.groups[gi]))
	for i, s := range t.groups[gi] {
		slot := &t.slots[s]
		if slot.fault != nil {
			panic(slot.fault)
		}
		if slot.err != nil {
			return nil, slot.err
		}
		out[i] = slot.g
	}
	return out, nil
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

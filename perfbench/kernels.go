package main

import (
	"math"
	"sort"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/dfscode"
	"graphsig/internal/feature"
	"graphsig/internal/fvmine"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
	"graphsig/internal/rwr"
	"graphsig/internal/sigmodel"
)

// perCall times calls to fn, single-threaded, and returns the mean
// nanoseconds and allocations per call. Each round runs fn once, which
// reports how many calls it made; rounds repeat until at least minCalls
// calls were made.
func perCall(minCalls int, fn func() int) (float64, float64) {
	calls := 0
	before := readMem()
	t0 := time.Now()
	for calls < minCalls {
		calls += fn()
	}
	elapsed := time.Since(t0)
	after := readMem()
	n := float64(calls)
	return float64(elapsed.Nanoseconds()) / n, float64(after.Mallocs-before.Mallocs) / n
}

// kernelSink keeps the compiler from discarding a kernel call whose
// result is otherwise unused.
var kernelSink float64

// kernels reports time and allocations per call for the innermost
// operation of each vector and graph layer, on the workload's own
// corpus and the answer of its last staged mine.
func kernels(rep *report, db []*graph.Graph, cfg core.Config, m stagedMine) {
	cfg = core.Normalized(cfg)

	// rwr.Walk: one random walk with restart from each node in turn.
	rcfg := rwr.Config{Alpha: cfg.Alpha, Bins: cfg.Bins}
	per, allocs := perCall(2000, func() int {
		n := 0
		for _, g := range db[:min(len(db), 20)] {
			for v := 0; v < g.NumNodes(); v++ {
				rwr.Walk(g, v, m.fs, rcfg)
				n++
			}
		}
		return n
	})
	rep.set("rwr.walk_us", per/1e3, "us")
	rep.set("rwr.walk_allocs", allocs, "count")

	// sigmodel: building the global model, then one p-value per
	// significant vector.
	all := make([]feature.Vector, len(m.vectors))
	for i, nv := range m.vectors {
		all[i] = nv.Vec
	}
	var builds []float64
	var model *sigmodel.Model
	for i := 0; i < 3; i++ {
		t := time.Now()
		model = sigmodel.New(all)
		builds = append(builds, msSince(t))
	}
	rep.set("sigmodel.new_ms", median(builds), "ms")
	per, allocs = perCall(50000, func() int {
		for _, g := range m.groups {
			kernelSink += model.LogPValue(g.Sig.Vec, g.Sig.Support)
		}
		return max(len(m.groups), 1)
	})
	rep.set("sigmodel.logpvalue_ns", per, "ns")
	rep.set("sigmodel.logpvalue_allocs", allocs, "count")

	// fvmine.Mine on the largest label group, with the options core.Mine
	// gives it.
	byLabel := map[graph.Label][]feature.Vector{}
	for _, nv := range m.vectors {
		byLabel[nv.Label] = append(byLabel[nv.Label], nv.Vec)
	}
	var largest []feature.Vector
	best := graph.Label(-1)
	for l, vs := range byLabel {
		if len(vs) > len(largest) || (len(vs) == len(largest) && l < best) {
			largest, best = vs, l
		}
	}
	minSup := int(math.Ceil(cfg.MinFreqPct / 100 * float64(len(largest))))
	minSup = max(minSup, cfg.MinSupportFloor)
	var runs []float64
	states := 0
	before := readMem()
	for i := 0; i < 3; i++ {
		t := time.Now()
		res := fvmine.Mine(largest, fvmine.Options{MinSupport: minSup, MaxPvalue: cfg.MaxPvalue, Model: model, SkipZeroFloor: true})
		runs = append(runs, msSince(t))
		states = res.StatesExplored
	}
	after := readMem()
	rep.set("fvmine.kernel_ms", median(runs), "ms")
	rep.set("fvmine.kernel_states", float64(states), "count")
	rep.set("fvmine.kernel_allocs", float64(after.Mallocs-before.Mallocs)/3, "count")

	// VF2: each answer pattern against the first graphs of the corpus.
	patterns := make([]*graph.Graph, len(m.subs))
	for i, sg := range m.subs {
		patterns[i] = sg.Graph
	}
	targets := db[:min(len(db), 20)]
	per, allocs = perCall(2000, func() int {
		for _, p := range patterns {
			for _, t := range targets {
				isomorph.SubgraphIsomorphic(p, t)
			}
		}
		return max(len(patterns)*len(targets), 1)
	})
	rep.set("isomorph.vf2_us", per/1e3, "us")
	rep.set("isomorph.vf2_allocs", allocs, "count")

	// dfscode.MinimumCode over the answer patterns, largest first so the
	// cost is not dominated by trivial one-edge codes.
	sort.Slice(patterns, func(i, j int) bool { return patterns[i].NumEdges() > patterns[j].NumEdges() })
	per, allocs = perCall(1000, func() int {
		for _, p := range patterns {
			dfscode.MinimumCode(p)
		}
		return max(len(patterns), 1)
	})
	rep.set("dfscode.mincode_us", per/1e3, "us")
	rep.set("dfscode.mincode_allocs", allocs, "count")
}

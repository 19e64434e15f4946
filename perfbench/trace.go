package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/feature"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
	"graphsig/internal/rwr"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Req    int     `json:"req"`
	Start  float64 `json:"startMs"`
	End    float64 `json:"endMs"`
	Self   float64 `json:"selfMs"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs call the same code.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() float64 {
	return float64(time.Since(r.epoch).Nanoseconds()) / 1e6
}

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(name string, parent, req int) int {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Req: req, Start: t})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = t
}

// duration returns span id's length in seconds.
func (r *recorder) duration(id int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.spans[id-1]
	return (s.End - s.Start) / 1e3
}

// finish computes every span's self time — its length minus the part
// of it its children cover — and writes the spans as JSON to path.
func (r *recorder) finish(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for i := range r.spans {
		s := &r.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	logf("wrote %d spans to %s", len(r.spans), path)
	return nil
}

func (r *recorder) self(id int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].Self / 1e3
}

func tracePath(workload string, seed int64) string {
	return filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", workload, seed))
}

// stagedMine is one mine composed from the public stage API, with a
// span around every stage and a metrics registry of its own.
type stagedMine struct {
	subs      []core.Subgraph
	truncated bool
	stats     core.PatternStats
	snap      obs.Snapshot
	root      int
	stage     map[string]int // layer → span id
	fs        *feature.Set
	vectors   []rwr.NodeVector
	groups    []core.VectorGroup
}

// stageMine runs the same mine core.Mine runs, one public stage at a
// time: features, RWR, significance and FVMine, Phase-3 group mining,
// then graph-space support verification through the VF2 prefilter.
func stageMine(rec *recorder, req int, db []*graph.Graph, cfg core.Config) stagedMine {
	reg := obs.NewRegistry()
	cfg = core.Normalized(cfg)
	cfg.Metrics = reg
	ctl := core.ControllerFor(cfg)
	cfg.Ctl = ctl
	m := stagedMine{stage: map[string]int{}}
	m.root = rec.start("mine", 0, req)
	step := func(name string, fn func()) {
		id := rec.start(name, m.root, req)
		fn()
		rec.end(id)
		m.stage[name] = id
	}
	step("feature", func() { m.fs = core.BuildFeatureSet(db, cfg) })
	step("rwr", func() { m.vectors = core.ComputeVectors(db, m.fs, cfg) })
	step("fvmine", func() { m.groups = core.SignificantGroups(m.vectors, cfg) })
	var patterns []*core.Subgraph
	step("core.group_mine", func() {
		patterns, m.stats = core.MinePatterns(func(i int) *graph.Graph { return db[i] }, m.groups, cfg)
	})
	step("isomorph.verify", func() { verifySupport(db, patterns, cfg.Parallelism, ctl) })
	m.subs = make([]core.Subgraph, len(patterns))
	for i, p := range patterns {
		m.subs[i] = *p
	}
	core.SortSubgraphs(m.subs)
	rec.end(m.root)
	m.truncated = ctl.Report().Truncated
	m.snap = reg.Snapshot()
	return m
}

// verifySupport counts each pattern's support over db with a shared
// prefilter, fanned out over workers, the way core.Mine verifies.
func verifySupport(db []*graph.Graph, patterns []*core.Subgraph, workers int, ctl *runctl.Controller) {
	pf := isomorph.NewPrefilter(db).Meter(ctl.Metrics(), "verify")
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cp := ctl.Checkpoint(runctl.StageVerify)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(patterns) {
					return
				}
				sup, err := pf.SupportCtl(patterns[i].Graph, cp)
				if err != nil {
					continue // stays Unverified, and the digest check fails
				}
				patterns[i].Support = sup
				patterns[i].Frequency = float64(sup) / float64(len(db))
				patterns[i].Unverified = false
			}
		}()
	}
	wg.Wait()
}

// traceMine is the traced run of a mine workload. It alternates untraced
// core.Mine calls with staged mines for the window, checks that both give
// the expected answer, and reports the per-layer metrics.
func traceMine(shape mineShape, db []*graph.Graph, cfg core.Config, want answer, o options) (report, error) {
	rec := newRecorder()
	var rep report
	var plain, traced []float64
	var mem memDelta
	var staged []stagedMine
	start := time.Now()
	for len(plain) < 3 || time.Since(start) < o.window {
		before := readMem()
		t := time.Now()
		res := core.Mine(db, cfg)
		plain = append(plain, msSince(t))
		mem.add(before, readMem())
		rep.Attempted++
		if got := digest(res.Subgraphs); res.Truncated || got != want {
			rep.Failed++
			logf("untraced mine: %d patterns, digest %s: wrong answer", got.Patterns, got.Digest)
		}

		m := stageMine(rec, len(staged)+1, db, cfg)
		traced = append(traced, rec.duration(m.root)*1e3)
		staged = append(staged, m)
		rep.Attempted++
		if got := digest(m.subs); m.truncated || got != want {
			rep.Failed++
			logf("traced mine: %d patterns, digest %s: differs from the untraced answer %s", got.Patterns, got.Digest, want.Digest)
		}
	}
	if err := rec.finish(tracePath(shape.name, o.seed)); err != nil {
		return report{}, err
	}
	rep.Correct = rep.Failed == 0
	mineLayers(&rep, rec, staged)
	if err := runtimeMetrics(&rep, mem, len(plain)); err != nil {
		return report{}, err
	}
	overhead := 100 * ratio(median(traced)-median(plain), median(plain))
	rep.set("trace.overhead_pct", overhead, "%")
	logf("traced mine median %.1f ms vs untraced %.1f ms over %d pairs", median(traced), median(plain), len(plain))
	kernels(&rep, db, cfg, staged[len(staged)-1])
	fillLayers(&rep)
	return rep, nil
}

// mineLayers reports the per-stage spans and the obs counters of the
// staged mines, as medians over the mines.
func mineLayers(rep *report, rec *recorder, staged []stagedMine) {
	per := func(fn func(m stagedMine) float64) float64 {
		xs := make([]float64, len(staged))
		for i, m := range staged {
			xs[i] = fn(m)
		}
		return median(xs)
	}
	wall := func(name string) func(stagedMine) float64 {
		return func(m stagedMine) float64 { return rec.duration(m.stage[name]) }
	}
	mineWall := per(func(m stagedMine) float64 { return rec.duration(m.root) })
	rep.set("mine.wall_s", mineWall, "s")
	rep.set("mine.self_s", per(func(m stagedMine) float64 { return rec.self(m.root) }), "s")
	rep.set("feature.wall_s", per(wall("feature")), "s")
	rep.set("rwr.wall_s", per(wall("rwr")), "s")
	rep.set("fvmine.wall_s", per(wall("fvmine")), "s")
	rep.set("core.group_mine_wall_s", per(wall("core.group_mine")), "s")
	rep.set("isomorph.verify_wall_s", per(wall("isomorph.verify")), "s")
	rep.set("share.vector_pct", 100*per(func(m stagedMine) float64 {
		return ratio(wall("rwr")(m)+wall("fvmine")(m), rec.duration(m.root))
	}), "%")
	rep.set("share.group_mine_pct", 100*per(func(m stagedMine) float64 {
		return ratio(wall("core.group_mine")(m), rec.duration(m.root))
	}), "%")
	rep.set("core.group_mine_busy_s", per(func(m stagedMine) float64 {
		h, _ := m.snap.HistogramValue(obs.MStageDuration, "stage", string(runctl.StageGroupMine))
		return h.Sum
	}), "s")
	rep.set("core.group_p95_ms", per(func(m stagedMine) float64 {
		h, _ := m.snap.HistogramValue(obs.MStageDuration, "stage", string(runctl.StageGroupMine))
		return 1e3 * h.Quantile(0.95)
	}), "ms")

	// Work counts repeat exactly from mine to mine; read the last one.
	m := staged[len(staged)-1]
	snap := m.snap
	rep.set("rwr.vectors", float64(len(m.vectors)), "count")
	rep.set("fvmine.groups", float64(len(m.groups)), "count")
	rep.set("core.groups_mined", float64(m.stats.GroupsMined), "count")
	rep.set("core.groups_pruned", float64(m.stats.GroupsPruned), "count")
	hits := float64(snap.CounterValue(obs.MWindowCacheHits))
	misses := float64(snap.CounterValue(obs.MWindowCacheMisses))
	rep.set("core.window_hit_ratio", ratio(hits, hits+misses), "ratio")
	rep.set("fsg.closed_prunes", float64(snap.CounterValue(obs.MClosedPrunes, "miner", "fsg")), "count")
	rep.set("fsg.maximal_pairs", float64(snap.CounterValue(obs.MMaximalPairs, "site", "fsg")), "count")
	rep.set("isomorph.maximal_vf2_calls", float64(snap.CounterValue(obs.MPrefilterPasses, "site", "maximal")), "count")
	rej := float64(snap.CounterValue(obs.MPrefilterRejects, "site", "verify"))
	pass := float64(snap.CounterValue(obs.MPrefilterPasses, "site", "verify"))
	rep.set("isomorph.verify_reject_ratio", ratio(rej, rej+pass), "ratio")
}

// layerMetrics names every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload bypasses reads 0.
var layerMetrics = [][2]string{
	{"mine.wall_s", "s"}, {"mine.self_s", "s"},
	{"share.vector_pct", "%"}, {"share.group_mine_pct", "%"},
	{"feature.wall_s", "s"},
	{"rwr.wall_s", "s"}, {"rwr.vectors", "count"}, {"rwr.walk_us", "us"}, {"rwr.walk_allocs", "count"},
	{"sigmodel.new_ms", "ms"}, {"sigmodel.logpvalue_ns", "ns"}, {"sigmodel.logpvalue_allocs", "count"},
	{"fvmine.wall_s", "s"}, {"fvmine.groups", "count"}, {"fvmine.kernel_ms", "ms"},
	{"fvmine.kernel_states", "count"}, {"fvmine.kernel_allocs", "count"},
	{"core.group_mine_wall_s", "s"}, {"core.group_mine_busy_s", "s"}, {"core.group_p95_ms", "ms"},
	{"core.groups_mined", "count"}, {"core.groups_pruned", "count"}, {"core.window_hit_ratio", "ratio"},
	{"fsg.closed_prunes", "count"}, {"fsg.maximal_pairs", "count"},
	{"dfscode.mincode_us", "us"}, {"dfscode.mincode_allocs", "count"},
	{"isomorph.vf2_us", "us"}, {"isomorph.vf2_allocs", "count"}, {"isomorph.maximal_vf2_calls", "count"},
	{"isomorph.verify_wall_s", "s"}, {"isomorph.verify_reject_ratio", "ratio"},
	{"store.graph_reads", "count"}, {"store.read_busy_s", "s"},
	{"store.segment_loads", "count"}, {"store.segment_hit_ratio", "ratio"},
	{"shard.mine_wall_s", "s"}, {"shard.vector_cache_hit_ratio", "ratio"},
	{"jobs.queue_wait_ms_p50", "ms"}, {"jobs.run_ms_p50", "ms"}, {"jobs.hit_p50_ms", "ms"},
	{"jobs.cache_hit_ratio", "ratio"}, {"jobs.coalesced", "count"}, {"jobs.refused", "count"},
	{"journal.records", "count"}, {"journal.bytes_per_job", "B"}, {"journal.checkpoints", "count"},
	{"server.overhead_ms_p50", "ms"}, {"server.polls_per_job", "count"},
	{"runtime.allocs_per_mine", "count"}, {"runtime.alloc_mb_per_mine", "MB"},
	{"runtime.gc_cycles_per_mine", "count"}, {"runtime.gc_pause_ms", "ms"}, {"runtime.peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// fillLayers reports 0 for every per-layer metric the workload did not
// touch, so every traced run carries the same metric names.
func fillLayers(rep *report) {
	for _, m := range layerMetrics {
		if _, ok := rep.Metrics[m[0]]; !ok {
			rep.set(m[0], 0, m[1])
		}
	}
}

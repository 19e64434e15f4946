package shard

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"graphsig/internal/chem"
	"graphsig/internal/core"
	"graphsig/internal/feature"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
	"graphsig/internal/rwr"
	"graphsig/internal/store"
)

// plantedDB mirrors the core test workload: total random molecules,
// the first `planted` of them carrying a grafted significant core —
// the Fig-10-style setup TestMineRecoversPlantedCore mines.
func plantedDB(total, planted int, sig *graph.Graph) []*graph.Graph {
	gen := chem.NewGenerator(99)
	db := make([]*graph.Graph, total)
	for i := range db {
		m := gen.Molecule()
		if i < planted {
			base := m.NumNodes()
			for v := 0; v < sig.NumNodes(); v++ {
				m.AddNode(sig.NodeLabel(v))
			}
			for _, e := range sig.Edges() {
				m.MustAddEdge(base+e.From, base+e.To, e.Label)
			}
			m.MustAddEdge(0, base, chem.BondSingle)
		}
		m.ID = i
		db[i] = m
	}
	return db
}

func testConfig() core.Config {
	cfg := core.Defaults()
	cfg.CutoffRadius = 3
	cfg.MaxPvalue = 0.1
	cfg.MinSupportFloor = 3
	cfg.MaxGroupSize = 40
	return cfg
}

// resultLines flattens every observable field of an answer set —
// including p-values and verified supports — for exact comparison.
func resultLines(res core.Result) []string {
	out := make([]string, 0, len(res.Subgraphs))
	for _, sg := range res.Subgraphs {
		out = append(out, fmt.Sprintf("%s|%d|%v|%v|%d|%d|%d|%d|%v|%v",
			sg.Canonical, sg.SourceLabel, sg.VectorPValue, sg.VectorLogPValue,
			sg.VectorSupport, sg.GroupSize, sg.GroupSupport, sg.Support,
			sg.Frequency, sg.Unverified))
	}
	return out
}

func assertSameResult(t *testing.T, label string, want, got core.Result) {
	t.Helper()
	if want.VectorsMined != got.VectorsMined || want.GroupsMined != got.GroupsMined ||
		want.GroupsPruned != got.GroupsPruned || want.GroupErrors != got.GroupErrors {
		t.Errorf("%s: counters differ: %d/%d/%d/%d vs %d/%d/%d/%d", label,
			want.VectorsMined, want.GroupsMined, want.GroupsPruned, want.GroupErrors,
			got.VectorsMined, got.GroupsMined, got.GroupsPruned, got.GroupErrors)
	}
	la, lb := resultLines(want), resultLines(got)
	if len(la) != len(lb) {
		t.Fatalf("%s: %d vs %d subgraphs", label, len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Errorf("%s: subgraph %d differs:\n  want %s\n  got  %s", label, i, la[i], lb[i])
		}
	}
}

// TestShardInvariance is the acceptance gate of the scatter-gather
// design: the pattern set — every field, p-values and verified
// supports included — must be byte-identical to an unsharded core.Mine
// for shard counts 1, 2 and 4 under both partition strategies, and for
// more shards than graphs, where some shards are empty.
func TestShardInvariance(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	cfg := testConfig()
	ref := core.Mine(db, cfg)
	if len(ref.Subgraphs) == 0 {
		t.Fatal("reference mine found nothing; the comparison is vacuous")
	}
	if ref.Truncated {
		t.Fatalf("reference mine truncated: %s", ref.Degradation.String())
	}
	for _, strategy := range []Strategy{Contiguous, Hash} {
		for _, shards := range []int{1, 2, 4, len(db) + 8} {
			label := fmt.Sprintf("%s-%d", strategy, shards)
			t.Run(label, func(t *testing.T) {
				c, err := New(core.Slice(db), Options{Shards: shards, Strategy: strategy})
				if err != nil {
					t.Fatal(err)
				}
				res, err := c.Mine(testConfig())
				if err != nil {
					t.Fatal(err)
				}
				if res.Truncated {
					t.Fatalf("sharded mine truncated: %s", res.Degradation.String())
				}
				assertSameResult(t, label, ref, res)
			})
		}
	}
}

// TestStoreBackedMineMatchesInMemory is the out-of-core acceptance
// path: a corpus served lazily from disk segments — with a reader LRU
// far smaller than the segment count, so mining continuously evicts
// and reloads — must mine to the byte-identical result of an
// in-memory run.
func TestStoreBackedMineMatchesInMemory(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	ref := core.Mine(db, testConfig())
	if len(ref.Subgraphs) == 0 {
		t.Fatal("reference mine found nothing")
	}
	dir := t.TempDir()
	man, err := store.Build(dir, db, store.BuildOptions{SegmentGraphs: 7})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := store.Open(dir, store.Options{CachedSegments: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(r, Options{Shards: 2, Strategy: Contiguous, Fingerprint: man.Fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Mine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "store-backed", ref, res)
	loads := reg.Counter(obs.MStoreSegmentLoads).Value()
	if loads <= int64(len(man.Segments)) {
		t.Errorf("reader loaded %d segments total; with a 2-segment LRU over %d segments the mine should have evicted and reloaded", loads, len(man.Segments))
	}
}

// TestSweepSegmentLoadsBounded: Phase 3 cuts every region window in one
// sweep over the database in position order, so a store-backed mine
// decodes each segment at most once per shard in each of the three
// shard passes (features, RWR, verify) plus once for the sweep, even
// with an LRU smaller than the segment count. Fetching windows in group
// order instead reloads segments for every group.
func TestSweepSegmentLoadsBounded(t *testing.T) {
	db := plantedDB(48, 8, chem.SbCore())
	ref := core.Mine(db, testConfig())
	if len(ref.Subgraphs) == 0 {
		t.Fatal("reference mine found nothing")
	}
	dir := t.TempDir()
	man, err := store.Build(dir, db, store.BuildOptions{SegmentGraphs: 4})
	if err != nil {
		t.Fatal(err)
	}
	const lru = 4
	segments := len(man.Segments)
	if segments <= lru {
		t.Fatalf("%d segments do not exceed the %d-segment LRU", segments, lru)
	}
	const shards = 2
	for _, strategy := range []Strategy{Hash, Contiguous} {
		for _, par := range []int{1, 2} {
			label := fmt.Sprintf("%s-p%d", strategy, par)
			t.Run(label, func(t *testing.T) {
				reg := obs.NewRegistry()
				r, err := store.Open(dir, store.Options{CachedSegments: lru, Metrics: reg})
				if err != nil {
					t.Fatal(err)
				}
				c, err := New(r, Options{Shards: shards, Strategy: strategy, Fingerprint: man.Fingerprint})
				if err != nil {
					t.Fatal(err)
				}
				cfg := testConfig()
				cfg.Parallelism = par
				res, err := c.Mine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				assertSameResult(t, label, ref, res)
				bound := int64(3*shards*segments + segments)
				loads := reg.Counter(obs.MStoreSegmentLoads).Value()
				t.Logf("%d segment loads, bound %d", loads, bound)
				if loads > bound {
					t.Errorf("%d segment loads; want at most %d (3 passes × %d shards × %d segments + one sweep)", loads, bound, shards, segments)
				}
			})
		}
	}
}

// TestStoreMineDecodesEachGraphOncePerPass: the reader caches raw
// segment bytes and decodes one frame per read, so a store-backed mine
// decodes each graph once in each of its four passes (features, RWR,
// the Phase-3 sweep, verify) whatever the shard plan, plus once per
// frame when a segment is first checked in full. Through a warm reader,
// reloads of checked bytes skip that check. With an LRU smaller than
// the segment count every Hash shard pass reloads segments; with one
// that holds them all, the reader keeps the graphs of the full checks,
// and a warm mine decodes nothing.
func TestStoreMineDecodesEachGraphOncePerPass(t *testing.T) {
	db := plantedDB(48, 8, chem.SbCore())
	ref := core.Mine(db, testConfig())
	if len(ref.Subgraphs) == 0 {
		t.Fatal("reference mine found nothing")
	}
	dir := t.TempDir()
	man, err := store.Build(dir, db, store.BuildOptions{SegmentGraphs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) <= 4 {
		t.Fatalf("%d segments do not exceed a 4-segment LRU", len(man.Segments))
	}
	graphs := int64(len(db))
	for _, lru := range []struct {
		name        string
		segments    int
		fresh, warm int64
	}{
		{"exceeds-lru", 4, 5 * graphs, 4 * graphs},
		{"fits-lru", len(man.Segments), graphs, 0},
	} {
		for _, strategy := range []Strategy{Hash, Contiguous} {
			for _, shards := range []int{2, 4} {
				for _, par := range []int{1, 2} {
					label := fmt.Sprintf("%s/%s-%d-p%d", lru.name, strategy, shards, par)
					t.Run(label, func(t *testing.T) {
						reg := obs.NewRegistry()
						r, err := store.Open(dir, store.Options{CachedSegments: lru.segments, Metrics: reg})
						if err != nil {
							t.Fatal(err)
						}
						c, err := New(r, Options{Shards: shards, Strategy: strategy, Fingerprint: man.Fingerprint})
						if err != nil {
							t.Fatal(err)
						}
						cfg := testConfig()
						cfg.Parallelism = par
						decodes := reg.Counter(obs.MStoreGraphDecodes)
						for mine, bound := range []int64{lru.fresh, lru.warm} {
							before := decodes.Value()
							res, err := c.Mine(cfg)
							if err != nil {
								t.Fatal(err)
							}
							assertSameResult(t, label, ref, res)
							n := decodes.Value() - before
							t.Logf("mine %d: %d decodes of %d graphs, bound %d", mine+1, n, graphs, bound)
							if n > bound {
								t.Errorf("mine %d made %d graph decodes; want at most %d for %d graphs", mine+1, n, bound, graphs)
							}
						}
					})
				}
			}
		}
	}
}

var errInjectedRead = errors.New("injected read failure")

// failingSource serves its first `reads` graph reads, then fails every
// read after them, counting the failures.
type failingSource struct {
	core.Slice
	reads  atomic.Int64
	failed atomic.Int64
}

func (f *failingSource) Graph(i int) (*graph.Graph, error) {
	if f.reads.Add(-1) < 0 {
		f.failed.Add(1)
		return nil, errInjectedRead
	}
	return f.Slice.Graph(i)
}

// TestWindowReadErrorFailsMine: a source read that fails while Phase 3
// cuts region windows must fail the mine with that error — not be booked
// as a per-group error behind a successful return — and no group whose
// read failed may reach a checkpoint. Reads succeed through the two
// scatter passes (feature statistics, then RWR) and fail from the first
// window fetch on. Once a group has failed, no
// further group is launched: only the groups already in flight read.
func TestWindowReadErrorFailsMine(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	src := &failingSource{Slice: db}
	src.reads.Store(2 * int64(len(db)))
	c, err := New(src, Options{Shards: 2, Strategy: Hash, Fingerprint: graph.Fingerprint(db)})
	if err != nil {
		t.Fatal(err)
	}
	var checkpoints atomic.Int64
	cfg := testConfig()
	cfg.CheckpointEvery = 1
	cfg.Parallelism = 2
	cfg.Ctl = runctl.New(runctl.Options{CheckpointSink: func([]byte) { checkpoints.Add(1) }})
	res, err := c.Mine(cfg)
	if !errors.Is(err, errInjectedRead) {
		t.Fatalf("Mine returned error %v; want the injected read failure", err)
	}
	if res.GroupErrors != 0 {
		t.Errorf("read failure booked as %d group errors", res.GroupErrors)
	}
	if n := checkpoints.Load(); n != 0 {
		t.Errorf("%d checkpoints emitted for groups whose window read failed", n)
	}
	// Two workers in flight plus one launch already past its check.
	if res.VectorsMined <= 3 {
		t.Fatalf("only %d vector groups; the launch check is vacuous", res.VectorsMined)
	}
	if n := src.failed.Load(); n > 3 {
		t.Errorf("%d failed reads across %d groups; groups kept launching after the first failure", n, res.VectorsMined)
	}
}

// liveHeap returns the bytes of live heap objects after a full
// collection. The second GC clears what the first left in sync.Pool
// victim caches, so the reading does not depend on GC timing.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// vectorBytes is the heap footprint of one mine's RWR vectors over db.
func vectorBytes(db []*graph.Graph, cfg core.Config) uint64 {
	cfg = core.Normalized(cfg)
	st := feature.NewStats()
	for _, g := range db {
		st.Add(g)
	}
	fs := feature.ChemistrySetFromStats(st, cfg.Alphabet, cfg.TopAtoms)
	vecs := core.ComputeVectors(db, fs, cfg)
	total := uint64(cap(vecs)) * uint64(unsafe.Sizeof(rwr.NodeVector{}))
	for _, v := range vecs {
		total += uint64(cap(v.Vec))
	}
	return total
}

// TestCoordinatorRetainsNothingBetweenMines: a coordinator is a plan,
// not a cache. Mining many distinct configs through one coordinator
// over a store must leave the live heap where the first mine left it —
// less than one mine's vectors above it — and repeating a config must
// answer byte-identically.
func TestCoordinatorRetainsNothingBetweenMines(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	dir := t.TempDir()
	man, err := store.Build(dir, db, store.BuildOptions{SegmentGraphs: 7})
	if err != nil {
		t.Fatal(err)
	}
	r, err := store.Open(dir, store.Options{CachedSegments: 2})
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(r, Options{Shards: 4, Strategy: Hash, Fingerprint: man.Fingerprint})
	if err != nil {
		t.Fatal(err)
	}
	oneMine := vectorBytes(db, testConfig())
	config := func(i int) core.Config {
		cfg := testConfig()
		cfg.MaxPvalue = 0.1 + 0.001*float64(i)
		return cfg
	}
	mine := func(i int) core.Result {
		t.Helper()
		res, err := c.Mine(config(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Truncated {
			t.Fatalf("mine %d truncated: %s", i, res.Degradation.String())
		}
		return res
	}
	const distinct = 12
	first := mine(0)
	if len(first.Subgraphs) == 0 {
		t.Fatal("first mine found nothing; the repeat comparison is vacuous")
	}
	base := liveHeap()
	for i := 1; i < distinct; i++ {
		mine(i)
	}
	after := liveHeap()
	grown := int64(after) - int64(base)
	t.Logf("live heap %d B after the first mine, %d B after %d distinct mines; one mine's vectors are %d B", base, after, distinct, oneMine)
	if grown >= int64(oneMine) {
		t.Errorf("live heap grew %d B over %d further mines; want less than one mine's vectors (%d B)", grown, distinct-1, oneMine)
	}
	assertSameResult(t, "repeat of the first config", first, mine(0))
	assertSameResult(t, "repeat of the last config", mine(distinct-1), mine(distinct-1))
}

// peakHeapDuring runs fn while a poller samples HeapInuse, and returns
// the highest sample above the in-use heap fn started from.
func peakHeapDuring(fn func()) uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapInuse
	var peak uint64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapInuse)
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	fn()
	close(stop)
	<-done
	if peak < base {
		return 0
	}
	return peak - base
}

// TestShardedMinePeakHeapBounded: sharding bounds residency within a
// mine. An 8-shard store-backed mine holds one shard's graphs in each
// per-graph pass where a 1-shard mine holds them all, and everything
// else a mine keeps is pooled the same way at any shard count, so the
// 8-shard peak in-use heap must not exceed the 1-shard peak. A 5% GC
// target keeps in-use heap within a few percent of the live heap, so
// the peaks measure what the mine holds, not when the collector ran.
// Each shard count mines three times, alternating, and the highest
// peak of each is compared; the quarter of slack absorbs the samples
// a 200 µs poller misses.
func TestShardedMinePeakHeapBounded(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(5))
	db := plantedDB(120, 16, chem.SbCore())
	dir := t.TempDir()
	man, err := store.Build(dir, db, store.BuildOptions{SegmentGraphs: 8})
	if err != nil {
		t.Fatal(err)
	}
	peak := func(shards int) uint64 {
		r, err := store.Open(dir, store.Options{CachedSegments: 4})
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(r, Options{Shards: shards, Strategy: Hash, Fingerprint: man.Fingerprint})
		if err != nil {
			t.Fatal(err)
		}
		var res core.Result
		var mineErr error
		p := peakHeapDuring(func() { res, mineErr = c.Mine(testConfig()) })
		if mineErr != nil {
			t.Fatal(mineErr)
		}
		if len(res.Subgraphs) == 0 || res.Truncated {
			t.Fatalf("%d-shard mine found %d subgraphs, truncated %v", shards, len(res.Subgraphs), res.Truncated)
		}
		return p
	}
	var one, eight uint64
	for round := 0; round < 3; round++ {
		one = max(one, peak(1))
		eight = max(eight, peak(8))
	}
	t.Logf("peak in-use heap above the start: 1 shard %d B, 8 shards %d B", one, eight)
	if one == 0 {
		t.Fatal("the poller saw no heap growth; the comparison is vacuous")
	}
	if eight > one+one/4 {
		t.Errorf("8-shard mine peaked at %d B in use, above the 1-shard peak of %d B plus a quarter", eight, one)
	}
}

// BenchmarkWarmStoreMine mines one store through a reader kept warm
// across mines, in the shape of perfbench's served-jobs workload: 400
// molecules in 32-graph segments, 4 shards, radius 3, two workers. In
// "fits-lru" all 13 segments fit the reader's LRU, so after the warm-up
// mine no segment is read from disk again; in "exceeds-lru" the LRU
// holds 4 of them, as served-jobs' does, and shard passes reload
// segments.
func BenchmarkWarmStoreMine(b *testing.B) {
	db := chem.GenerateN(chem.CancerSpecs()[1], 400).Graphs
	for i, g := range db {
		g.ID = i
	}
	dir := b.TempDir()
	man, err := store.Build(dir, db, store.BuildOptions{SegmentGraphs: 32})
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.Defaults()
	cfg.CutoffRadius = 3
	cfg.MaxPvalue = 0.1
	cfg.Parallelism = 2
	for _, lru := range []struct {
		name     string
		segments int
	}{{"fits-lru", len(man.Segments)}, {"exceeds-lru", 4}} {
		for _, strategy := range []Strategy{Hash, Contiguous} {
			b.Run(fmt.Sprintf("%s/%s", lru.name, strategy), func(b *testing.B) {
				reg := obs.NewRegistry()
				r, err := store.Open(dir, store.Options{CachedSegments: lru.segments, Metrics: reg})
				if err != nil {
					b.Fatal(err)
				}
				c, err := New(r, Options{Shards: 4, Strategy: strategy, Fingerprint: man.Fingerprint})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := c.Mine(cfg); err != nil {
					b.Fatal(err)
				}
				decodes := reg.Counter(obs.MStoreGraphDecodes)
				before := decodes.Value()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.Mine(cfg); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(decodes.Value()-before)/float64(b.N), "decodes/op")
			})
		}
	}
}

package shard

import (
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
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

// countingSource counts graph reads.
type countingSource struct {
	core.Slice
	reads atomic.Int64
}

func (c *countingSource) Graph(i int) (*graph.Graph, error) {
	c.reads.Add(1)
	return c.Slice.Graph(i)
}

// TestShardVectorCacheHitReadsNothing: a shard whose vectors come from
// the cache is not read in the RWR pass — its fingerprint is taken in
// the feature-statistics pass — so a repeat mine reads exactly one full
// database pass less than the first.
func TestShardVectorCacheHitReadsNothing(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	src := &countingSource{Slice: db}
	c, err := New(src, Options{Shards: 4, Strategy: Hash, Fingerprint: graph.Fingerprint(db)})
	if err != nil {
		t.Fatal(err)
	}
	var reads [2]int64
	for i := range reads {
		before := src.reads.Load()
		if _, err := c.Mine(testConfig()); err != nil {
			t.Fatal(err)
		}
		reads[i] = src.reads.Load() - before
	}
	if reads[0]-reads[1] != int64(len(db)) {
		t.Errorf("first mine read %d graphs, repeat mine %d; the cache hits should save exactly %d reads", reads[0], reads[1], len(db))
	}
}

// TestShardVectorCacheRepeatMine: a second identical mine on the same
// coordinator hits every shard's vector cache.
func TestShardVectorCacheRepeatMine(t *testing.T) {
	db := plantedDB(40, 8, chem.SbCore())
	reg := obs.NewRegistry()
	c, err := New(core.Slice(db), Options{Shards: 4, Strategy: Hash, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Mine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Mine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "repeat mine", first, second)
	for s := 0; s < 4; s++ {
		label := strconv.Itoa(s)
		if got := reg.Counter(obs.MShardVectorCacheHits, "shard", label).Value(); got != 1 {
			t.Errorf("shard %d: %d cache hits, want 1", s, got)
		}
		if got := reg.Counter(obs.MShardVectorCacheMisses, "shard", label).Value(); got != 1 {
			t.Errorf("shard %d: %d cache misses, want 1", s, got)
		}
	}
}

// TestAppendInvalidatesOnlyAffectedShards: after an incremental append
// under the Hash strategy, shards that gained no graphs serve their
// cached vectors; only the shards the new graphs landed in recompute.
func TestAppendInvalidatesOnlyAffectedShards(t *testing.T) {
	db := plantedDB(42, 8, chem.SbCore())
	reg := obs.NewRegistry()
	c, err := New(core.Slice(db[:40]), Options{Shards: 4, Strategy: Hash, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mine(testConfig()); err != nil {
		t.Fatal(err)
	}
	// Positions 40 and 41 hash to shards 0 and 1; shards 2 and 3 keep
	// their exact member lists.
	c.Reload(core.Slice(db), graph.Fingerprint(db))
	res, err := c.Mine(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Affected shards missed twice (initial + post-append), unchanged
	// shards missed once and hit once.
	for s, wantMisses := range []int64{2, 2, 1, 1} {
		label := strconv.Itoa(s)
		if got := reg.Counter(obs.MShardVectorCacheMisses, "shard", label).Value(); got != wantMisses {
			t.Errorf("shard %d: %d cache misses, want %d", s, got, wantMisses)
		}
	}
	// And the post-append result is still exactly the whole-database
	// answer, cached vectors and all.
	ref := core.Mine(db, testConfig())
	assertSameResult(t, "post-append", ref, res)
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
// scatter passes (feature statistics, then RWR with a cold vector cache)
// and fail from the first window fetch on. Once a group has failed, no
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

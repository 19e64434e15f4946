package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
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

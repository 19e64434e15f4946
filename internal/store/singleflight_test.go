package store

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
)

// concurrentReads starts n goroutines at once, each reading graph i%8
// of the store behind r, and returns their errors.
func concurrentReads(r *Reader, n int) []error {
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = r.Graph(i % 8)
		}(i)
	}
	close(start)
	wg.Wait()
	return errs
}

// TestConcurrentMissesLoadOnce: goroutines that miss on the same cold
// segment at once share one decode instead of each decoding a copy.
func TestConcurrentMissesLoadOnce(t *testing.T) {
	db := testDB(t, 8)
	dir := t.TempDir()
	if _, err := Build(dir, db, BuildOptions{SegmentGraphs: 8}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range concurrentReads(r, 8) {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	if got := reg.Counter(obs.MStoreSegmentLoads).Value(); got != 1 {
		t.Errorf("8 concurrent reads of one cold segment made %d loads, want 1", got)
	}
	for i, want := range db {
		got, err := r.Graph(i)
		if err != nil {
			t.Fatal(err)
		}
		sameGraph(t, got, want)
	}
}

// TestFailedLoadReachesWaitersAndRetries: a failed decode fails every
// caller that was waiting on it, is not cached, and the next read after
// the damage is repaired loads the segment afresh.
func TestFailedLoadReachesWaitersAndRetries(t *testing.T) {
	db := testDB(t, 8)
	dir := t.TempDir()
	if _, err := Build(dir, db, BuildOptions{SegmentGraphs: 8}); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "segment-000000.seg")
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, pristine[:len(pristine)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := Open(dir, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range concurrentReads(r, 8) {
		if err == nil {
			t.Errorf("reader %d served a torn segment", i)
		}
	}
	if err := os.WriteFile(seg, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := r.Graph(3)
	if err != nil {
		t.Fatalf("read after repair: %v (failed load was cached)", err)
	}
	sameGraph(t, got, db[3])
	if n := reg.Counter(obs.MStoreSegmentLoads).Value(); n != 1 {
		t.Errorf("%d successful loads, want 1", n)
	}
}

// BenchmarkDecodeSegment decodes one 32-graph segment: CRC, graph
// decode, freeze and fingerprint, as a segment's first load does.
func BenchmarkDecodeSegment(b *testing.B) {
	db := make([]*graph.Graph, 32)
	gen := chem.NewGenerator(42)
	for i := range db {
		db[i] = gen.Molecule()
		db[i].ID = i
	}
	path := filepath.Join(b.TempDir(), "segment.seg")
	fp, err := writeSegment(path, db)
	if err != nil {
		b.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg, err := indexSegment(data, "bench")
		if err == nil {
			_, err = seg.verify(len(db), fp, nil)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

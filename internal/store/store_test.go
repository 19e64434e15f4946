package store

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
)

func testDB(t *testing.T, n int) []*graph.Graph {
	t.Helper()
	gen := chem.NewGenerator(42)
	db := make([]*graph.Graph, n)
	for i := range db {
		db[i] = gen.Molecule()
		db[i].ID = i
	}
	return db
}

func sameGraph(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.ID != want.ID {
		t.Fatalf("ID = %d, want %d", got.ID, want.ID)
	}
	// Structural identity including adjacency order: the fingerprint
	// covers labels and edge order, which is exactly what mining
	// determinism depends on.
	if graph.Fingerprint([]*graph.Graph{got}) != graph.Fingerprint([]*graph.Graph{want}) {
		t.Fatalf("graph %d decoded differently", want.ID)
	}
}

// readSegment loads and verifies one segment file with the reference
// decoder: the magic, every frame's CRC, the graph count, and the
// segment content fingerprint recorded in the manifest.
func readSegment(path string, wantCount int, wantFP string) ([]*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: read segment: %w", err)
	}
	return decodeSegment(data, wantCount, wantFP, path)
}

// decodeSegment is the reference whole-segment decoder, kept apart from
// the reader's frame index and one-frame decodes so the two can be
// checked against each other: one sequential pass with its own header
// walk, CRC check, count check and fingerprint check. It shares only
// decodeGraph with the reader. wantCount < 0 skips the count check;
// wantFP == "" skips the fingerprint check.
func decodeSegment(data []byte, wantCount int, wantFP, name string) ([]*graph.Graph, error) {
	if len(data) < len(segmentMagic) || string(data[:len(segmentMagic)]) != segmentMagic {
		return nil, fmt.Errorf("store: %s: bad segment magic", name)
	}
	data = data[len(segmentMagic):]
	var graphs []*graph.Graph
	var labels []graph.Label
	fpr := graph.NewFingerprinter()
	for len(data) > 0 {
		if len(data) < 8 {
			return nil, fmt.Errorf("store: %s: torn frame header (%d bytes) — segment rejected: %w", name, len(data), io.ErrUnexpectedEOF)
		}
		length := binary.LittleEndian.Uint32(data[0:4])
		sum := binary.LittleEndian.Uint32(data[4:8])
		if length > maxFramePayload {
			return nil, fmt.Errorf("store: %s: frame length %d exceeds limit", name, length)
		}
		if uint64(len(data)-8) < uint64(length) {
			return nil, fmt.Errorf("store: %s: torn frame payload (want %d, have %d) — segment rejected: %w", name, length, len(data)-8, io.ErrUnexpectedEOF)
		}
		payload := data[8 : 8+length]
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("store: %s: frame %d CRC mismatch — segment rejected", name, len(graphs))
		}
		g, scratch, err := decodeGraph(payload, labels)
		labels = scratch
		if err != nil {
			return nil, fmt.Errorf("store: %s: frame %d: %w", name, len(graphs), err)
		}
		graphs = append(graphs, g)
		fpr.Add(g)
		data = data[8+length:]
	}
	if wantCount >= 0 && len(graphs) != wantCount {
		return nil, fmt.Errorf("store: %s: manifest says %d graphs, segment holds %d", name, wantCount, len(graphs))
	}
	if wantFP != "" && fpr.Sum() != wantFP {
		return nil, fmt.Errorf("store: %s: segment fingerprint mismatch", name)
	}
	return graphs, nil
}

func TestStoreRoundTrip(t *testing.T) {
	db := testDB(t, 20)
	dir := t.TempDir()
	m, err := Build(dir, db, BuildOptions{SegmentGraphs: 7})
	if err != nil {
		t.Fatal(err)
	}
	if m.Graphs != 20 || len(m.Segments) != 3 {
		t.Fatalf("manifest: %d graphs in %d segments, want 20 in 3", m.Graphs, len(m.Segments))
	}
	if m.Fingerprint != graph.Fingerprint(db) {
		t.Fatal("manifest fingerprint differs from in-memory fingerprint")
	}
	reg := obs.NewRegistry()
	r, err := Open(dir, Options{CachedSegments: 2, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 20 || r.Generation() != 1 || r.Fingerprint() != m.Fingerprint {
		t.Fatalf("reader shape: len=%d gen=%d", r.Len(), r.Generation())
	}
	// Random-access everything twice; with a 2-segment LRU over 3
	// segments this forces evictions and re-loads.
	for pass := 0; pass < 2; pass++ {
		for i, want := range db {
			got, err := r.Graph(i)
			if err != nil {
				t.Fatalf("Graph(%d): %v", i, err)
			}
			sameGraph(t, got, want)
		}
	}
	if reg.Counter(obs.MStoreSegmentLoads).Value() <= 3 {
		t.Fatalf("expected eviction-driven re-loads, got %d loads", reg.Counter(obs.MStoreSegmentLoads).Value())
	}
	if reg.Counter(obs.MStoreSegmentCacheHits).Value() == 0 {
		t.Fatal("expected cache hits")
	}
	all, err := r.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	if graph.Fingerprint(all) != graph.Fingerprint(db) {
		t.Fatal("eager Graphs() differs from original database")
	}
	if _, err := r.Graph(20); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := r.Graph(-1); err == nil {
		t.Fatal("negative read accepted")
	}
}

func TestStoreAppend(t *testing.T) {
	db := testDB(t, 25)
	dir := t.TempDir()
	if _, err := Build(dir, db[:15], BuildOptions{SegmentGraphs: 6}); err != nil {
		t.Fatal(err)
	}
	m, err := Append(dir, db[15:], BuildOptions{SegmentGraphs: 6})
	if err != nil {
		t.Fatal(err)
	}
	if m.Generation != 2 {
		t.Fatalf("generation = %d, want 2 after one append", m.Generation)
	}
	// The appended store's fingerprint equals the one-shot fingerprint
	// of the whole database — the property that keeps cache keys from a
	// full rebuild and an incremental append interchangeable.
	if m.Fingerprint != graph.Fingerprint(db) {
		t.Fatal("appended fingerprint differs from whole-database fingerprint")
	}
	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range db {
		got, err := r.Graph(i)
		if err != nil {
			t.Fatalf("Graph(%d): %v", i, err)
		}
		sameGraph(t, got, want)
	}
	// A second Build into a populated dir must refuse.
	if _, err := Build(dir, db, BuildOptions{}); err == nil {
		t.Fatal("Build over an existing store accepted")
	}
}

// TestSegmentGolden pins the on-disk byte format: a fixed two-graph
// segment must encode to exactly these bytes. If this test breaks, the
// format changed and existing stores on disk will not load — bump the
// magic instead.
func TestSegmentGolden(t *testing.T) {
	g1 := graph.New(3, 2)
	g1.ID = 7
	g1.AddNode(0)
	g1.AddNode(1)
	g1.AddNode(2)
	g1.MustAddEdge(0, 1, 0)
	g1.MustAddEdge(1, 2, 1)
	g2 := graph.New(1, 0)
	g2.ID = -1 // negative IDs survive (varint, not uvarint)
	g2.AddNode(5)

	dir := t.TempDir()
	path := filepath.Join(dir, "g.seg")
	if _, err := writeSegment(path, []*graph.Graph{g1, g2}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = "4753494753454731" + // "GSIGSEG1"
		"0c000000" + "0c04bfd6" + // frame 1: len 12, crc32
		"0e" + "03" + "000204" + "02" + "000100" + "010202" + // g1: id 7, labels, edges
		"04000000" + "c43ad562" + // frame 2: len 4, crc32
		"01" + "01" + "0a" + "00" // g2: id -1, one node, no edges
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("segment bytes changed:\n got %s\nwant %s", got, want)
	}
	graphs, err := readSegment(path, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	sameGraph(t, graphs[0], g1)
	sameGraph(t, graphs[1], g2)
	if graphs[1].ID != -1 {
		t.Fatalf("negative ID lost: %d", graphs[1].ID)
	}
}

// segmentDamage maps each kind of damage to a mutation of a pristine
// segment file's bytes (the argument is a copy the mutation may edit).
func segmentDamage() map[string]func([]byte) []byte {
	return map[string]func([]byte) []byte{
		"torn tail":       func(b []byte) []byte { return b[:len(b)-3] },
		"torn mid-header": func(b []byte) []byte { return b[:len(segmentMagic)+5] },
		"flipped payload": func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b },
		"flipped crc":     func(b []byte) []byte { b[len(segmentMagic)+4] ^= 0xff; return b },
		"bad magic":       func(b []byte) []byte { b[0] = 'X'; return b },
		"oversized length": func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[len(segmentMagic):], maxFramePayload+1)
			return b
		},
		"truncated empty": func(b []byte) []byte { return b[:3] },
	}
}

// TestSegmentRejectsDamage: unlike the journal, a damaged segment is
// refused outright — torn tails included — because segments are
// written whole and fsynced before the manifest names them.
func TestSegmentRejectsDamage(t *testing.T) {
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

	for name, mutate := range segmentDamage() {
		corrupt := mutate(append([]byte(nil), pristine...))
		if err := os.WriteFile(seg, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("%s: Open should succeed (lazy), got %v", name, err)
		}
		if _, err := r.Graph(0); err == nil {
			t.Errorf("%s: damaged segment served", name)
		}
	}

	// Wrong count and wrong fingerprint in the manifest are also
	// refused, by the reference decoder and by the reader's full check.
	if err := os.WriteFile(seg, pristine, 0o644); err != nil {
		t.Fatal(err)
	}
	readerCheck := func(wantCount int, wantFP string) error {
		s, err := indexSegment(pristine, seg)
		if err != nil {
			return err
		}
		_, err = s.verify(wantCount, wantFP, nil)
		return err
	}
	for _, c := range []struct {
		count int
		fp    string
		want  string
	}{{7, "", "manifest says"}, {8, "deadbeef", "fingerprint mismatch"}} {
		if _, err := readSegment(seg, c.count, c.fp); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("reference decoder: %q not refused: %v", c.want, err)
		}
		if err := readerCheck(c.count, c.fp); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("reader: %q not refused: %v", c.want, err)
		}
	}
}

// TestReloadRejectsDamage: a reader keeps only the raw bytes of the
// segments in its LRU and, after a segment's first full check, a digest
// of the bytes it checked. A reload after eviction must refuse every
// kind of damage exactly as a first load does — including a file
// replaced by another well-formed segment whose frame CRCs all pass,
// which only the manifest fingerprint can tell apart — and must serve
// none of its graphs. A reload of the bytes it checked before decodes
// only the frame read.
func TestReloadRejectsDamage(t *testing.T) {
	db := testDB(t, 16)
	dir := t.TempDir()
	if _, err := Build(dir, db, BuildOptions{SegmentGraphs: 8}); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "segment-000000.seg")
	pristine, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Another eight graphs, framed with correct CRCs, in place of the
	// first segment's.
	impostorPath := filepath.Join(t.TempDir(), "impostor.seg")
	if _, err := writeSegment(impostorPath, testDB(t, 24)[16:]); err != nil {
		t.Fatal(err)
	}
	impostor, err := os.ReadFile(impostorPath)
	if err != nil {
		t.Fatal(err)
	}
	cases := segmentDamage()
	cases["well-formed impostor"] = func([]byte) []byte { return impostor }

	// loadedThenEvicted opens a reader over the pristine store, reads
	// graph 0 (a full check of segment 0) and graph 8 (segment 1 evicts
	// segment 0 from the one-slot LRU).
	loadedThenEvicted := func(name string) (*Reader, *obs.Registry) {
		t.Helper()
		if err := os.WriteFile(seg, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		r, err := Open(dir, Options{CachedSegments: 1, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range []int{0, 8} {
			got, err := r.Graph(i)
			if err != nil {
				t.Fatalf("%s: pristine Graph(%d): %v", name, i, err)
			}
			sameGraph(t, got, db[i])
		}
		return r, reg
	}
	for name, mutate := range cases {
		r, _ := loadedThenEvicted(name)
		if err := os.WriteFile(seg, mutate(append([]byte(nil), pristine...)), 0o644); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if g, err := r.Graph(i); err == nil {
				t.Errorf("%s: reload served graph %d (ID %d)", name, i, g.ID)
			} else if name == "well-formed impostor" && !strings.Contains(err.Error(), "fingerprint mismatch") {
				t.Errorf("%s: reload refused with %v; want the fingerprint mismatch", name, err)
			}
		}
		if _, err := r.Graphs(); err == nil {
			t.Errorf("%s: Graphs served a damaged segment", name)
		}
	}

	r, reg := loadedThenEvicted("pristine reload")
	decodes := reg.Counter(obs.MStoreGraphDecodes)
	before := decodes.Value()
	got, err := r.Graph(3)
	if err != nil {
		t.Fatalf("pristine reload: %v", err)
	}
	sameGraph(t, got, db[3])
	if n := decodes.Value() - before; n != 1 {
		t.Errorf("reloading checked bytes to read one graph made %d decodes, want 1", n)
	}
	if n := reg.Counter(obs.MStoreSegmentLoads).Value(); n != 3 {
		t.Errorf("%d segment loads, want 3 (segment 0 twice, segment 1 once)", n)
	}
}

func TestManifestValidation(t *testing.T) {
	db := testDB(t, 10)
	dir := t.TempDir()
	if _, err := Build(dir, db, BuildOptions{SegmentGraphs: 5}); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, manifestName)
	pristine, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	for name, mangled := range map[string]string{
		"not json":        "{",
		"wrong version":   strings.Replace(string(pristine), `"version": 1`, `"version": 99`, 1),
		"range gap":       strings.Replace(string(pristine), `"start": 5`, `"start": 6`, 1),
		"count mismatch":  strings.Replace(string(pristine), `"graphs": 10`, `"graphs": 11`, 1),
		"bad state":       strings.Replace(string(pristine), `"fingerprintState": "`, `"fingerprintState": "!!!`, 1),
		"state fp drift":  strings.Replace(string(pristine), `"fingerprint": "`, `"fingerprint": "00`, 1),
		"state n mangled": strings.Replace(string(pristine), `"graphs": 10`, `"graphs": 10, "x": 0`, 1),
	} {
		if err := os.WriteFile(manifest, []byte(mangled), 0o644); err != nil {
			t.Fatal(err)
		}
		switch name {
		case "bad state", "state fp drift":
			// These pass Open (lazy readers never touch the fold state)
			// but must refuse Append.
			if _, err := Append(dir, db[:1], BuildOptions{}); err == nil {
				t.Errorf("%s: Append accepted inconsistent manifest", name)
			}
		case "state n mangled":
			// Harmless extra JSON field: still opens.
			if _, err := Open(dir, Options{}); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		default:
			if _, err := Open(dir, Options{}); err == nil {
				t.Errorf("%s: accepted", name)
			}
		}
	}
}

// FuzzDecodeSegment hammers the untrusted-input path: arbitrary bytes
// must either decode cleanly or return an error — never panic, never
// allocate absurdly.
func FuzzDecodeSegment(f *testing.F) {
	// Seed corpus: a valid segment, its prefixes, and light mutations.
	g := graph.New(2, 1)
	g.ID = 1
	g.AddNode(0)
	g.AddNode(1)
	g.MustAddEdge(0, 1, 0)
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.seg")
	if _, err := writeSegment(path, []*graph.Graph{g, g}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(valid[:len(segmentMagic)+4])
	f.Add([]byte(segmentMagic))
	f.Add([]byte{})
	mutated := append([]byte(nil), valid...)
	mutated[len(mutated)/2] ^= 0x40
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		graphs, err := decodeSegment(data, -1, "", "fuzz")
		if err == nil {
			for _, g := range graphs {
				if g == nil {
					t.Fatal("decoded nil graph without error")
				}
			}
		}
		// The reader's path: index the frames, then decode them one at a
		// time, last first and each without scratch, as random reads do.
		// It must accept exactly what the reference decoder accepts and
		// return the same graphs.
		var frames []*graph.Graph
		seg, frameErr := indexSegment(data, "fuzz")
		if frameErr == nil {
			frames = make([]*graph.Graph, len(seg.frames))
			for k := len(frames) - 1; k >= 0 && frameErr == nil; k-- {
				frames[k], _, frameErr = seg.graph(k, nil, nil)
			}
		}
		if (err == nil) != (frameErr == nil) {
			t.Fatalf("whole-segment decode error %v, per-frame decode error %v", err, frameErr)
		}
		if err != nil {
			return
		}
		if len(frames) != len(graphs) {
			t.Fatalf("per-frame decode found %d graphs, whole-segment %d", len(frames), len(graphs))
		}
		for k, want := range graphs {
			got := frames[k]
			if got.ID != want.ID || !slices.Equal(got.Labels(), want.Labels()) || !slices.Equal(got.Edges(), want.Edges()) {
				t.Fatalf("frame %d: per-frame decode %v differs from whole-segment %v", k, got, want)
			}
		}
		// The reader's full check accepts the count and fingerprint the
		// reference decoder found.
		if _, err := seg.verify(len(graphs), graph.Fingerprint(graphs), nil); err != nil {
			t.Fatalf("reader's full check refused what the reference decoder accepted: %v", err)
		}
	})
}

// FuzzManifestJSON hammers the other untrusted-input surface: the
// manifest decoder. Arbitrary bytes must either produce a manifest
// whose segment ranges tile, or an error — never a panic. Accepted
// manifests must also survive a marshal/decode round trip unchanged
// in the fields the Reader depends on.
func FuzzManifestJSON(f *testing.F) {
	dir := f.TempDir()
	db := make([]*graph.Graph, 6)
	gen := chem.NewGenerator(7)
	for i := range db {
		db[i] = gen.Molecule()
		db[i].ID = i
	}
	if _, err := Build(dir, db, BuildOptions{SegmentGraphs: 2}); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"graphs":2,"segments":[{"file":"a","start":0,"count":2}]}`))
	f.Add([]byte(`{"version":1,"graphs":2,"segments":[{"file":"a","start":1,"count":1}]}`))
	f.Add([]byte(`{"version":1,"graphs":-1,"segments":[{"file":"a","start":0,"count":-1}]}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeManifest(data)
		if err != nil {
			return
		}
		covered := 0
		for _, s := range m.Segments {
			if s.Start != covered || s.Count < 0 {
				t.Fatalf("accepted non-tiling segments: %+v", m.Segments)
			}
			covered += s.Count
		}
		if covered != m.Graphs {
			t.Fatalf("accepted manifest claiming %d graphs over %d covered", m.Graphs, covered)
		}
		re, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("re-marshal accepted manifest: %v", err)
		}
		m2, err := decodeManifest(re)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if m2.Version != m.Version || m2.Generation != m.Generation ||
			m2.Graphs != m.Graphs || m2.Fingerprint != m.Fingerprint ||
			len(m2.Segments) != len(m.Segments) {
			t.Fatalf("round trip changed manifest: %+v vs %+v", m, m2)
		}
	})
}

// Package store is the persistent on-disk database format: immutable
// binary graph segments plus a manifest that names them. It exists so
// a corpus larger than RAM is servable — the Reader loads segments
// lazily, keeps only a small LRU of their raw bytes, and decodes one
// graph per read — and so the serving stack has a durable database
// identity: the manifest carries the whole-database fingerprint (the
// jobs cache key scope), a per-segment graph range and content
// fingerprint (load-time verification), and a monotonic generation
// number that incremental append bumps, which is what lets cache
// layers above distinguish "same directory, new data" from "same
// database".
//
// Durability discipline matches internal/journal: segment bytes are
// written, fsynced, and only then named by a manifest that is itself
// replaced atomically (temp file, fsync, rename, directory fsync). The
// recovery policy is the opposite of the journal's, deliberately:
// segments are immutable once named, so a torn tail or CRC mismatch is
// refused, never repaired — see segment.go.
package store

import (
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"graphsig/internal/graph"
	"graphsig/internal/obs"
)

const (
	manifestName    = "manifest.json"
	manifestVersion = 1

	// DefaultSegmentGraphs is how many graphs Build packs per segment
	// when BuildOptions doesn't say: small enough that one segment's
	// decode is cheap, large enough that a million-graph corpus stays
	// in the thousands of files.
	DefaultSegmentGraphs = 256

	// DefaultCachedSegments is the Reader's raw-segment LRU size when
	// Options doesn't say.
	DefaultCachedSegments = 4
)

// SegmentInfo is one manifest row: a segment file and the contiguous
// graph range it holds. Start indexes the database position (0-based),
// not graph IDs.
type SegmentInfo struct {
	File        string `json:"file"`
	Start       int    `json:"start"`
	Count       int    `json:"count"`
	Fingerprint string `json:"fingerprint"`
}

// Manifest is the store's root metadata, serialized as manifest.json.
type Manifest struct {
	Version    int   `json:"version"`
	Generation int64 `json:"generation"`
	Graphs     int   `json:"graphs"`
	Nodes      int64 `json:"nodes"`
	Edges      int64 `json:"edges"`
	// Fingerprint is graph.Fingerprint over the whole database in
	// segment order — the same value an in-memory load would compute.
	Fingerprint string `json:"fingerprint"`
	// FingerprintState is the database Fingerprinter's persisted
	// mid-state (base64), which is what lets Append extend the
	// fingerprint without re-reading every segment.
	FingerprintState string        `json:"fingerprintState"`
	Segments         []SegmentInfo `json:"segments"`
}

// BuildOptions tunes Build and Append.
type BuildOptions struct {
	// SegmentGraphs caps graphs per segment (DefaultSegmentGraphs when
	// zero or negative).
	SegmentGraphs int
}

func (o BuildOptions) segmentGraphs() int {
	if o.SegmentGraphs <= 0 {
		return DefaultSegmentGraphs
	}
	return o.SegmentGraphs
}

// Build writes db as a fresh store in dir, which must be empty of any
// prior manifest. Returns the manifest it wrote.
func Build(dir string, db []*graph.Graph, opts BuildOptions) (*Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err == nil {
		return nil, fmt.Errorf("store: %s already holds a store (use Append)", dir)
	}
	m := &Manifest{Version: manifestVersion, Generation: 1}
	fpr := graph.NewFingerprinter()
	if err := appendSegments(dir, m, fpr, db, opts); err != nil {
		return nil, err
	}
	if err := finishManifest(dir, m, fpr); err != nil {
		return nil, err
	}
	return m, nil
}

// Append adds graphs to an existing store as new segments, extends the
// database fingerprint from its persisted mid-state, and bumps the
// generation. Existing segments are untouched — a reader holding the
// old manifest keeps working, and cache layers keyed on (fingerprint,
// generation) see a new database.
func Append(dir string, more []*graph.Graph, opts BuildOptions) (*Manifest, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	state, err := base64.StdEncoding.DecodeString(m.FingerprintState)
	if err != nil {
		return nil, fmt.Errorf("store: manifest fingerprint state: %w", err)
	}
	fpr, err := graph.UnmarshalFingerprinter(state)
	if err != nil {
		return nil, fmt.Errorf("store: manifest fingerprint state: %w", err)
	}
	// The resumed fold must reproduce the recorded fingerprint before we
	// extend it; otherwise the manifest is internally inconsistent.
	if got := fpr.Sum(); got != m.Fingerprint {
		return nil, fmt.Errorf("store: manifest fingerprint %s does not match its own state (%s)", m.Fingerprint, got)
	}
	if int(fpr.Count()) != m.Graphs {
		return nil, fmt.Errorf("store: manifest says %d graphs, fingerprint state says %d", m.Graphs, fpr.Count())
	}
	m.Generation++
	if err := appendSegments(dir, m, fpr, more, opts); err != nil {
		return nil, err
	}
	if err := finishManifest(dir, m, fpr); err != nil {
		return nil, err
	}
	return m, nil
}

// appendSegments writes db as one or more new segment files and folds
// them into the manifest and the database fingerprint.
func appendSegments(dir string, m *Manifest, fpr *graph.Fingerprinter, db []*graph.Graph, opts BuildOptions) error {
	per := opts.segmentGraphs()
	for off := 0; off < len(db); off += per {
		end := off + per
		if end > len(db) {
			end = len(db)
		}
		chunk := db[off:end]
		name := fmt.Sprintf("segment-%06d.seg", len(m.Segments))
		segFP, err := writeSegment(filepath.Join(dir, name), chunk)
		if err != nil {
			return err
		}
		m.Segments = append(m.Segments, SegmentInfo{
			File:        name,
			Start:       m.Graphs,
			Count:       len(chunk),
			Fingerprint: segFP,
		})
		for _, g := range chunk {
			fpr.Add(g)
			m.Nodes += int64(g.NumNodes())
			m.Edges += int64(g.NumEdges())
		}
		m.Graphs += len(chunk)
	}
	return nil
}

// finishManifest stamps the database fingerprint and its resumable
// state, then replaces manifest.json atomically. The directory is
// fsynced twice: once so the new segment files' directory entries are
// durable before any manifest names them, once after the rename.
func finishManifest(dir string, m *Manifest, fpr *graph.Fingerprinter) error {
	if err := syncDir(dir); err != nil {
		return err
	}
	m.Fingerprint = fpr.Sum()
	state, err := fpr.MarshalState()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	m.FingerprintState = base64.StdEncoding.EncodeToString(state)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode manifest: %w", err)
	}
	tmp, err := os.CreateTemp(dir, manifestName+".tmp-*")
	if err != nil {
		return fmt.Errorf("store: manifest temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		closeRemove(tmp, tmpName)
		return fmt.Errorf("store: write manifest: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		closeRemove(tmp, tmpName)
		return fmt.Errorf("store: sync manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		if rmErr := os.Remove(tmpName); rmErr != nil {
			return fmt.Errorf("store: close manifest: %w (and remove temp: %v)", err, rmErr)
		}
		return fmt.Errorf("store: close manifest: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, manifestName)); err != nil {
		if rmErr := os.Remove(tmpName); rmErr != nil {
			return fmt.Errorf("store: publish manifest: %w (and remove temp: %v)", err, rmErr)
		}
		return fmt.Errorf("store: publish manifest: %w", err)
	}
	return syncDir(dir)
}

// closeRemove tears down a failed temp file; the write/sync error that
// got us here is the one worth reporting, so these are best-effort but
// still observed to satisfy the durability lint and leave no litter.
func closeRemove(f *os.File, name string) {
	if err := f.Close(); err != nil {
		_ = os.Remove(name)
		return
	}
	_ = os.Remove(name)
}

// syncDir fsyncs a directory so renames and new entries in it are
// durable (same discipline as internal/journal).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return fmt.Errorf("store: sync dir: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("store: close dir: %w", closeErr)
	}
	return nil
}

func readManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("store: read manifest: %w", err)
	}
	return decodeManifest(data)
}

// decodeManifest parses and validates manifest bytes. It is the pure
// half of readManifest, split out so the untrusted-input path can be
// fuzzed without touching the filesystem: arbitrary bytes must either
// yield a tiling-consistent manifest or an error, never a panic.
func decodeManifest(data []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("store: decode manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return nil, fmt.Errorf("store: manifest version %d, want %d", m.Version, manifestVersion)
	}
	want := 0
	for _, s := range m.Segments {
		if s.Start != want {
			return nil, fmt.Errorf("store: segment %s starts at %d, want %d (ranges must tile)", s.File, s.Start, want)
		}
		if s.Count < 0 {
			return nil, fmt.Errorf("store: segment %s has negative count", s.File)
		}
		want += s.Count
	}
	if want != m.Graphs {
		return nil, fmt.Errorf("store: manifest says %d graphs, segments cover %d", m.Graphs, want)
	}
	return &m, nil
}

// Options tunes Open.
type Options struct {
	// CachedSegments caps how many segments' raw bytes the Reader
	// keeps in memory (DefaultCachedSegments when zero or negative). A
	// store with no more segments than that is kept decoded.
	CachedSegments int
	// Metrics, when non-nil, receives the segment load, cache and graph
	// decode counters.
	Metrics *obs.Registry
}

// Reader serves graphs from a store directory. It reads segment files
// on demand and keeps the raw bytes of at most CachedSegments of them
// in memory — the lazy path that makes a larger-than-RAM corpus
// servable — and each read decodes one frame: its CRC is checked, and
// the graph is decoded and frozen. Safe for concurrent use.
//
// The first load of a segment checks all of it: magic, every frame
// CRC, the graph count and the manifest's content fingerprint. The
// reader then records a SHA-256 digest of the file bytes, and a reload
// after eviction whose bytes match that digest skips the whole-segment
// decode; any other reload is checked in full again.
//
// A store whose segments all fit in the LRU is never evicted, so its
// reader keeps the graphs each segment's full check decoded, and reads
// decode nothing: raw bytes only bound residency when segments come and
// go, and decoding every read of a resident store costs a warm mine
// time and garbage for nothing.
type Reader struct {
	dir      string
	manifest *Manifest
	cap      int
	// keepDecoded is set when every segment fits in the LRU.
	keepDecoded bool

	loads   *obs.Counter
	hits    *obs.Counter
	misses  *obs.Counter
	decodes *obs.Counter

	mu       sync.Mutex
	cache    map[int]*rawSegment       // segment index → raw bytes and frame offsets
	lru      []int                     // segment indices, least recent first
	loading  map[int]*segmentLoad      // segment index → load in flight
	verified map[int][sha256.Size]byte // segment index → digest of the fully checked bytes
}

// segmentLoad is one in-flight segment load. Callers that miss on a
// segment already being loaded wait on done and share its result.
type segmentLoad struct {
	done chan struct{}
	seg  *rawSegment
	err  error
}

// Open reads and validates the manifest in dir and returns a lazy
// Reader. No segment is read until a graph from it is requested.
func Open(dir string, opts Options) (*Reader, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	capacity := opts.CachedSegments
	if capacity <= 0 {
		capacity = DefaultCachedSegments
	}
	r := &Reader{
		dir:         dir,
		manifest:    m,
		cap:         capacity,
		keepDecoded: len(m.Segments) <= capacity,
		cache:       map[int]*rawSegment{},
		loading:     map[int]*segmentLoad{},
		verified:    map[int][sha256.Size]byte{},
	}
	if reg := opts.Metrics; reg != nil {
		r.loads = reg.Counter(obs.MStoreSegmentLoads)
		r.hits = reg.Counter(obs.MStoreSegmentCacheHits)
		r.misses = reg.Counter(obs.MStoreSegmentCacheMisses)
		r.decodes = reg.Counter(obs.MStoreGraphDecodes)
		reg.Gauge(obs.MStoreGeneration).Set(m.Generation)
		reg.Gauge(obs.MStoreSegments).Set(int64(len(m.Segments)))
	}
	return r, nil
}

// Len returns the number of graphs in the database.
func (r *Reader) Len() int { return r.manifest.Graphs }

// Generation returns the manifest's generation number.
func (r *Reader) Generation() int64 { return r.manifest.Generation }

// Fingerprint returns the whole-database content fingerprint.
func (r *Reader) Fingerprint() string { return r.manifest.Fingerprint }

// Manifest returns the manifest this reader was opened with. Callers
// must treat it as read-only.
func (r *Reader) Manifest() *Manifest { return r.manifest }

// Graph returns database position i, decoding its frame from the
// segment's raw bytes (or returning the kept graph, when the whole
// store fits in the LRU), which are loaded (and verified) first if they
// are not cached.
func (r *Reader) Graph(i int) (*graph.Graph, error) {
	if i < 0 || i >= r.manifest.Graphs {
		return nil, fmt.Errorf("store: graph %d out of range [0,%d)", i, r.manifest.Graphs)
	}
	segs := r.manifest.Segments
	// Find the segment whose range holds i: the first with Start+Count > i.
	si := sort.Search(len(segs), func(k int) bool {
		return segs[k].Start+segs[k].Count > i
	})
	seg, err := r.segment(si)
	if err != nil {
		return nil, err
	}
	var labels [64]graph.Label // node-label scratch; a larger graph grows it on the heap
	g, _, err := seg.graph(i-segs[si].Start, labels[:0], r.decodes)
	return g, err
}

// Graphs materializes the whole database in order — the eager path, for
// callers that need every graph resident anyway (index builds, small
// corpora). It streams segment by segment through the cache, decoding
// one frame at a time, so peak extra memory beyond the result is one
// segment's raw bytes.
func (r *Reader) Graphs() ([]*graph.Graph, error) {
	out := make([]*graph.Graph, 0, r.manifest.Graphs)
	var labels []graph.Label
	for si := range r.manifest.Segments {
		seg, err := r.segment(si)
		if err != nil {
			return nil, err
		}
		for k := range seg.frames {
			var g *graph.Graph
			if g, labels, err = seg.graph(k, labels, r.decodes); err != nil {
				return nil, err
			}
			out = append(out, g)
		}
	}
	return out, nil
}

// segment returns segment si's raw bytes and frame offsets, consulting
// the LRU. A miss on a segment another goroutine is already loading
// waits for that load instead of starting its own, so concurrent misses
// on one segment cost one load. A failed load is handed to every waiter
// and not cached; the next call retries it.
func (r *Reader) segment(si int) (*rawSegment, error) {
	r.mu.Lock()
	if seg, ok := r.cache[si]; ok {
		r.touch(si)
		r.mu.Unlock()
		r.hits.Inc()
		return seg, nil
	}
	r.misses.Inc()
	if l, ok := r.loading[si]; ok {
		r.mu.Unlock()
		<-l.done
		return l.seg, l.err
	}
	l := &segmentLoad{done: make(chan struct{})}
	r.loading[si] = l
	r.mu.Unlock()
	r.load(si, l)
	return l.seg, l.err
}

// load reads segment si into l, caches it on success, and releases l's
// waiters — on every path, so a panicking load cannot strand them. The
// bytes are checked in full unless they match the digest of bytes this
// reader checked before.
func (r *Reader) load(si int, l *segmentLoad) {
	info := r.manifest.Segments[si]
	l.err = fmt.Errorf("store: %s: segment load did not complete", info.File)
	var digest [sha256.Size]byte
	defer func() {
		r.mu.Lock()
		delete(r.loading, si)
		if l.err == nil {
			r.verified[si] = digest
			r.cache[si] = l.seg
			r.lru = append(r.lru, si)
			for len(r.cache) > r.cap {
				evict := r.lru[0]
				r.lru = r.lru[1:]
				delete(r.cache, evict)
			}
		}
		r.mu.Unlock()
		close(l.done)
	}()
	path := filepath.Join(r.dir, info.File)
	data, err := os.ReadFile(path)
	if err != nil {
		l.err = fmt.Errorf("store: read segment: %w", err)
		return
	}
	digest = sha256.Sum256(data)
	r.mu.Lock()
	want, checked := r.verified[si]
	r.mu.Unlock()
	seg, err := indexSegment(data, path)
	if err == nil && (!checked || digest != want) {
		var graphs []*graph.Graph
		graphs, err = seg.verify(info.Count, info.Fingerprint, r.decodes)
		if r.keepDecoded {
			seg.graphs = graphs
		}
	}
	if err != nil {
		l.err = err
		return
	}
	l.seg, l.err = seg, nil
	r.loads.Inc()
}

// touch moves si to the most-recent end of the LRU. Caller holds mu.
func (r *Reader) touch(si int) {
	for k, v := range r.lru {
		if v == si {
			r.lru = append(append(r.lru[:k:k], r.lru[k+1:]...), si)
			return
		}
	}
}

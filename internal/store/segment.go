package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"

	"graphsig/internal/graph"
	"graphsig/internal/obs"
)

// Segment file layout. A segment is an immutable run of graphs:
//
//	8-byte magic "GSIGSEG1"
//	repeated frames: uint32 length | uint32 crc32(payload) | payload
//
// — the journal's framing discipline (little-endian, IEEE CRC over the
// payload), but with the opposite recovery policy: the journal repairs
// a torn tail because its tail is the one record legitimately cut off
// by a crash, while a segment is written, synced, and renamed into
// place as a whole, so any torn or CRC-failing frame means the file is
// damaged and the reader must refuse it rather than silently serve a
// truncated database.
//
// Each payload is one graph in a self-delimiting binary form:
//
//	varint id, uvarint numNodes, numNodes × varint label,
//	uvarint numEdges, numEdges × (uvarint from, uvarint to, varint label)
//
// Edges are stored in the graph's own edge order and rebuilt through
// graph.FromEdges, which reproduces both the edge slice and the
// adjacency order — CutGraph's BFS order, and therefore mining output,
// depends on it.
const segmentMagic = "GSIGSEG1"

// maxFramePayload bounds a single decoded frame so a corrupt length
// field cannot ask the reader to allocate gigabytes.
const maxFramePayload = 64 << 20

// appendGraph serializes one graph onto buf.
func appendGraph(buf []byte, g *graph.Graph) []byte {
	buf = binary.AppendVarint(buf, int64(g.ID))
	buf = binary.AppendUvarint(buf, uint64(g.NumNodes()))
	for _, l := range g.Labels() {
		buf = binary.AppendVarint(buf, int64(l))
	}
	buf = binary.AppendUvarint(buf, uint64(g.NumEdges()))
	for _, e := range g.Edges() {
		buf = binary.AppendUvarint(buf, uint64(e.From))
		buf = binary.AppendUvarint(buf, uint64(e.To))
		buf = binary.AppendVarint(buf, int64(e.Label))
	}
	return buf
}

// decodeGraph rebuilds one graph from a frame payload. Every frame must
// be fully consumed: trailing bytes mean the payload was not written by
// this codec. The node labels are read into labels (scratch, returned
// for reuse) first, so a truncated frame fails before the graph's own
// slices are allocated at their final sizes.
func decodeGraph(payload []byte, labels []graph.Label) (*graph.Graph, []graph.Label, error) {
	r := &varintReader{buf: payload}
	id := r.varint()
	numNodes := r.uvarint()
	if r.err == nil && numNodes > uint64(len(payload)) {
		// Each node costs at least one payload byte; anything larger is
		// a corrupt count, not a huge graph.
		return nil, labels, fmt.Errorf("store: node count %d exceeds payload", numNodes)
	}
	labels = labels[:0]
	for i := uint64(0); i < numNodes && r.err == nil; i++ {
		labels = append(labels, graph.Label(r.varint()))
	}
	numEdges := r.uvarint()
	if r.err == nil && numEdges > uint64(len(payload)-r.off)/3 {
		// Each edge costs at least three payload bytes.
		return nil, labels, fmt.Errorf("store: edge count %d exceeds payload", numEdges)
	}
	if r.err != nil {
		return nil, labels, r.err
	}
	edges := make([]graph.Edge, numEdges)
	for i := range edges {
		edges[i] = graph.Edge{From: int(r.uvarint()), To: int(r.uvarint()), Label: graph.Label(r.varint())}
	}
	if r.err != nil {
		return nil, labels, r.err
	}
	if r.off != len(payload) {
		return nil, labels, fmt.Errorf("store: %d trailing bytes after graph record", len(payload)-r.off)
	}
	// FromEdges builds the CSR here, on the decode goroutine, instead of
	// lazily under mining load.
	g, err := graph.FromEdges(slices.Clone(labels), edges)
	if err != nil {
		return nil, labels, fmt.Errorf("store: %w", err)
	}
	g.ID = int(id)
	return g, labels, nil
}

// varintReader decodes varints off a byte slice, latching the first
// error so decode loops stay linear.
type varintReader struct {
	buf []byte
	off int
	err error
}

func (r *varintReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("store: truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *varintReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("store: truncated uvarint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

// writeSegment writes graphs as one segment file at path, fsyncing
// before returning so a crash after Build/Append completes can never
// leave a manifest pointing at unwritten data. Returns the segment's
// own content fingerprint.
func writeSegment(path string, graphs []*graph.Graph) (fp string, err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return "", fmt.Errorf("store: create segment: %w", err)
	}
	defer func() {
		if f != nil {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("store: close segment: %w", cerr)
			}
		}
	}()
	buf := make([]byte, 0, 64*1024)
	buf = append(buf, segmentMagic...)
	fpr := graph.NewFingerprinter()
	var payload []byte
	for _, g := range graphs {
		if g == nil {
			return "", fmt.Errorf("store: nil graph cannot be stored")
		}
		payload = appendGraph(payload[:0], g)
		var frame [8]byte
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
		buf = append(buf, frame[:]...)
		buf = append(buf, payload...)
		fpr.Add(g)
	}
	if _, err := f.Write(buf); err != nil {
		return "", fmt.Errorf("store: write segment: %w", err)
	}
	if err := f.Sync(); err != nil {
		return "", fmt.Errorf("store: sync segment: %w", err)
	}
	closeErr := f.Close()
	f = nil
	if closeErr != nil {
		return "", fmt.Errorf("store: close segment: %w", closeErr)
	}
	return fpr.Sum(), nil
}

// rawSegment is a segment file's bytes and the offset of each frame in
// them. It is what the Reader caches: a frame is CRC-checked and
// decoded only when its graph is asked for, and no decoded graph is
// kept unless the whole store fits in the Reader's LRU.
type rawSegment struct {
	name   string
	data   []byte
	frames []int          // offset of each frame header in data
	graphs []*graph.Graph // every frame's checked graph, when kept
}

// indexSegment checks data's magic and walks its frame headers. A torn
// header or payload, or an oversized length, refuses the segment here;
// the frame CRCs are checked by graph.
func indexSegment(data []byte, name string) (*rawSegment, error) {
	if len(data) < len(segmentMagic) || string(data[:len(segmentMagic)]) != segmentMagic {
		return nil, fmt.Errorf("store: %s: bad segment magic", name)
	}
	seg := &rawSegment{name: name, data: data}
	for off := len(segmentMagic); off < len(data); {
		rest := data[off:]
		if len(rest) < 8 {
			return nil, fmt.Errorf("store: %s: torn frame header (%d bytes) — segment rejected: %w", name, len(rest), io.ErrUnexpectedEOF)
		}
		length := binary.LittleEndian.Uint32(rest[0:4])
		if length > maxFramePayload {
			return nil, fmt.Errorf("store: %s: frame length %d exceeds limit", name, length)
		}
		if uint64(len(rest)-8) < uint64(length) {
			return nil, fmt.Errorf("store: %s: torn frame payload (want %d, have %d) — segment rejected: %w", name, length, len(rest)-8, io.ErrUnexpectedEOF)
		}
		seg.frames = append(seg.frames, off)
		off += 8 + int(length)
	}
	return seg, nil
}

// graph returns frame k's graph: the kept one if the segment keeps its
// graphs, else it CRC-checks and decodes the frame into a frozen graph,
// counting the decode on decodes (nil counts nothing). labels is
// node-label scratch, returned for reuse.
func (s *rawSegment) graph(k int, labels []graph.Label, decodes *obs.Counter) (*graph.Graph, []graph.Label, error) {
	if s.graphs != nil {
		return s.graphs[k], labels, nil
	}
	frame := s.data[s.frames[k]:]
	length := binary.LittleEndian.Uint32(frame[0:4])
	payload := frame[8 : 8+length]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:8]) {
		return nil, labels, fmt.Errorf("store: %s: frame %d CRC mismatch — segment rejected", s.name, k)
	}
	decodes.Inc()
	g, labels, err := decodeGraph(payload, labels)
	if err != nil {
		return nil, labels, fmt.Errorf("store: %s: frame %d: %w", s.name, k, err)
	}
	return g, labels, nil
}

// verify decodes every frame in order and checks the graph count and
// the segment content fingerprint recorded in the manifest, returning
// the graphs. wantCount < 0 skips the count check; wantFP == "" skips
// the fingerprint check.
func (s *rawSegment) verify(wantCount int, wantFP string, decodes *obs.Counter) ([]*graph.Graph, error) {
	if wantCount >= 0 && len(s.frames) != wantCount {
		return nil, fmt.Errorf("store: %s: manifest says %d graphs, segment holds %d", s.name, wantCount, len(s.frames))
	}
	graphs := make([]*graph.Graph, len(s.frames))
	var labels []graph.Label
	fpr := graph.NewFingerprinter()
	for k := range s.frames {
		g, scratch, err := s.graph(k, labels, decodes)
		labels = scratch
		if err != nil {
			return nil, err
		}
		graphs[k] = g
		fpr.Add(g)
	}
	if wantFP != "" && fpr.Sum() != wantFP {
		return nil, fmt.Errorf("store: %s: segment fingerprint mismatch", s.name)
	}
	return graphs, nil
}

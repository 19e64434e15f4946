// Package journal is the durability layer of the jobs server: an
// append-only, CRC-framed, fsync-on-commit write-ahead log of job
// lifecycle events. The jobs manager appends one event per lifecycle
// transition (submitted, started, checkpoint, retrying, completed,
// failed, cancelled); on startup, Open replays the log — repairing a
// torn or corrupt tail by truncating back to the last intact record —
// folds the events into per-job records, and compacts the file so only
// each job's live minimum (submission, checkpoint chain of an
// unfinished job, terminal outcome) survives. Payloads are opaque JSON
// blobs owned by the caller; the journal knows framing and lifecycle,
// not mining.
//
// Frame format, little-endian, one record per event:
//
//	uint32 length | uint32 crc32(payload) | payload (JSON Event)
//
// Every append is a single write followed by fsync before Append
// returns: job lifecycle events are low-rate (a handful per job, plus
// one checkpoint per few mined groups), so the fsync cost buys the
// strongest guarantee — an acknowledged event survives kill -9 and
// power loss. A record that was being written when the process died is
// at the tail by construction and is cut off on the next Open.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"graphsig/internal/obs"
)

// Event types, in lifecycle order.
const (
	EvSubmitted  = "submitted"
	EvStarted    = "started"
	EvCheckpoint = "checkpoint"
	EvRetrying   = "retrying"
	EvCompleted  = "completed"
	EvFailed     = "failed"
	EvCancelled  = "cancelled"
)

// Event is one journaled lifecycle transition. Job is the subject; the
// remaining fields are type-dependent and omitted when empty.
type Event struct {
	Type string `json:"type"`
	Job  string `json:"job"`
	// AtMs is the event's wall-clock time in Unix milliseconds; replay
	// uses it to age out terminal jobs past the retention window.
	AtMs int64 `json:"atMs,omitempty"`
	// Key is the job's MineKey (submitted events).
	Key string `json:"key,omitempty"`
	// Label is the human-readable job label (submitted events).
	Label string `json:"label,omitempty"`
	// Config is the persisted mining config (submitted events).
	Config json.RawMessage `json:"config,omitempty"`
	// TimeoutMs is the job's per-run timeout (submitted events).
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// Attempt is the 0-based execution attempt (started/retrying).
	Attempt int `json:"attempt,omitempty"`
	// State is one part of a resumable mining snapshot chain
	// (checkpoint events).
	State json.RawMessage `json:"state,omitempty"`
	// Result is the persisted final result (completed events).
	Result json.RawMessage `json:"result,omitempty"`
	// Error is the failure detail (failed/cancelled/retrying events).
	Error string `json:"error,omitempty"`
}

// terminal reports whether the event type ends a job's lifecycle.
func terminal(typ string) bool {
	return typ == EvCompleted || typ == EvFailed || typ == EvCancelled
}

// JobRecord is the folded state of one job after replay: its submission
// identity plus its checkpoint chain and outcome. Terminal is "" for a
// job the crash interrupted — the manager re-enqueues it, resuming from
// Checkpoints — or one of completed/failed/cancelled.
type JobRecord struct {
	ID          string
	Key         string
	Label       string
	Config      []byte
	TimeoutMs   int64
	SubmittedMs int64
	Attempt     int
	// Checkpoints are the job's checkpoint payloads in append order:
	// the parts of one snapshot chain, which the caller applies in
	// order. A terminal job keeps none.
	Checkpoints [][]byte
	Terminal    string
	FinishedMs  int64
	Result      []byte
	Error       string

	// order is the record's submission position, for deterministic
	// replay ordering.
	order int
}

// Options configures Open.
type Options struct {
	// Retention drops terminal jobs whose finish time is older than
	// this window from both replay and the compacted file (0 = keep
	// all). Managers pass their result TTL so the journal cannot
	// outgrow the store it rebuilds.
	Retention time.Duration
	// Metrics, when non-nil, receives journal counters (records
	// appended by type, tail truncations, append errors).
	Metrics *obs.Registry
}

// Journal is an open write-ahead log. Appends are serialized and
// fsynced; a Journal is safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	metrics *obs.Registry
	closed  bool
}

// FileName is the journal's file name inside its directory.
const FileName = "jobs.wal"

// maxRecord bounds a single record; a length prefix beyond it is
// treated as tail corruption, not an allocation request.
const maxRecord = 1 << 28

// Open opens (creating if needed) the journal in dir, repairs a corrupt
// or torn tail, replays surviving events into JobRecords (submission
// order), compacts the file down to the live minimum, and returns the
// journal ready for appends.
func Open(dir string, opt Options) (*Journal, []JobRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("journal: create dir: %w", err)
	}
	path := filepath.Join(dir, FileName)
	events, err := recoverEvents(path, opt.Metrics)
	if err != nil {
		return nil, nil, err
	}
	records := fold(events, opt.Retention)
	if err := compact(path, records); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open: %w", err)
	}
	return &Journal{f: f, path: path, metrics: opt.Metrics}, records, nil
}

// Path returns the journal file's path.
func (j *Journal) Path() string { return j.path }

// Append frames, writes and fsyncs one event. The event is durable when
// Append returns nil. A nil Journal ignores appends, so callers can run
// without durability by simply not opening one.
func (j *Journal) Append(ev Event) error {
	if j == nil {
		return nil
	}
	payload, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("journal: encode event: %w", err)
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	if _, err := j.f.Write(frame); err != nil {
		j.metrics.Counter(obs.MJournalErrors).Inc()
		return fmt.Errorf("journal: append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		j.metrics.Counter(obs.MJournalErrors).Inc()
		return fmt.Errorf("journal: sync: %w", err)
	}
	j.metrics.Counter(obs.MJournalRecords, "type", ev.Type).Inc()
	return nil
}

// Close syncs and closes the journal. Further appends fail.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	if syncErr != nil {
		return fmt.Errorf("journal: close sync: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("journal: close: %w", closeErr)
	}
	return nil
}

// recoverEvents reads every intact record from path, truncating the
// file at the first torn or CRC-failing frame — by construction that
// frame and everything after it were in flight when the writer died.
// A missing file is an empty journal.
func recoverEvents(path string, reg *obs.Registry) ([]Event, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: read: %w", err)
	}
	var events []Event
	off := 0
	good := 0 // offset just past the last intact record
	for {
		if off+8 > len(data) {
			break // torn or absent header
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n <= 0 || n > maxRecord || off+8+n > len(data) {
			break // absurd length or torn payload
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break // bit rot or partially overwritten tail
		}
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			break // framed garbage: treat as corruption, not data
		}
		events = append(events, ev)
		off += 8 + n
		good = off
	}
	if good < len(data) {
		reg.Counter(obs.MJournalTruncations).Inc()
		if err := os.Truncate(path, int64(good)); err != nil {
			return nil, fmt.Errorf("journal: truncate corrupt tail: %w", err)
		}
	}
	return events, nil
}

// fold collapses an event sequence into per-job records, dropping
// terminal jobs older than the retention window. Records come back in
// submission order.
func fold(events []Event, retention time.Duration) []JobRecord {
	byID := map[string]*JobRecord{}
	order := 0
	for _, ev := range events {
		rec := byID[ev.Job]
		if rec == nil {
			if ev.Type != EvSubmitted {
				// Lifecycle events for a job whose submission was
				// compacted away or lost: nothing to rebuild from.
				continue
			}
			rec = &JobRecord{ID: ev.Job, order: order}
			order++
			byID[ev.Job] = rec
		}
		switch ev.Type {
		case EvSubmitted:
			rec.Key, rec.Label, rec.TimeoutMs = ev.Key, ev.Label, ev.TimeoutMs
			rec.SubmittedMs = ev.AtMs
			rec.Config = append([]byte(nil), ev.Config...)
		case EvStarted, EvRetrying:
			if ev.Attempt > rec.Attempt {
				rec.Attempt = ev.Attempt
			}
		case EvCheckpoint:
			rec.Checkpoints = append(rec.Checkpoints, ev.State)
		case EvCompleted:
			rec.Terminal, rec.FinishedMs = EvCompleted, ev.AtMs
			rec.Result = append([]byte(nil), ev.Result...)
		case EvFailed:
			rec.Terminal, rec.FinishedMs, rec.Error = EvFailed, ev.AtMs, ev.Error
		case EvCancelled:
			rec.Terminal, rec.FinishedMs, rec.Error = EvCancelled, ev.AtMs, ev.Error
		}
		if rec.Terminal != "" {
			rec.Checkpoints = nil // nothing resumes a finished job
		}
	}
	cutoff := int64(0)
	if retention > 0 {
		cutoff = time.Now().Add(-retention).UnixMilli()
	}
	out := make([]JobRecord, 0, len(byID))
	for _, rec := range byID {
		if rec.Terminal != "" && rec.FinishedMs < cutoff {
			continue // aged out: the store would have reaped it too
		}
		out = append(out, *rec)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].order < out[k].order })
	return out
}

// compact rewrites the journal to the live minimum — per job: its
// submission, latest attempt, checkpoint chain, and terminal outcome —
// via a temp file renamed into place, so a crash mid-compaction leaves
// either the old file or the new one, never a hybrid.
func compact(path string, records []JobRecord) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	w := func(ev Event) error {
		payload, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		frame := make([]byte, 8+len(payload))
		binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
		copy(frame[8:], payload)
		_, err = f.Write(frame)
		return err
	}
	for _, rec := range records {
		if err := writeRecord(w, rec); err != nil {
			return fmt.Errorf("journal: compact write: %w", errors.Join(err, f.Close()))
		}
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("journal: compact sync: %w", errors.Join(err, f.Close()))
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: compact close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("journal: compact rename: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// writeRecord emits one job's minimal event set.
func writeRecord(w func(Event) error, rec JobRecord) error {
	if err := w(Event{
		Type: EvSubmitted, Job: rec.ID, AtMs: rec.SubmittedMs,
		Key: rec.Key, Label: rec.Label, Config: rec.Config, TimeoutMs: rec.TimeoutMs,
	}); err != nil {
		return err
	}
	if rec.Attempt > 0 {
		if err := w(Event{Type: EvStarted, Job: rec.ID, Attempt: rec.Attempt}); err != nil {
			return err
		}
	}
	for _, part := range rec.Checkpoints {
		if err := w(Event{Type: EvCheckpoint, Job: rec.ID, State: part}); err != nil {
			return err
		}
	}
	switch rec.Terminal {
	case EvCompleted:
		return w(Event{Type: EvCompleted, Job: rec.ID, AtMs: rec.FinishedMs, Result: rec.Result})
	case EvFailed:
		return w(Event{Type: EvFailed, Job: rec.ID, AtMs: rec.FinishedMs, Error: rec.Error})
	case EvCancelled:
		return w(Event{Type: EvCancelled, Job: rec.ID, AtMs: rec.FinishedMs, Error: rec.Error})
	}
	return nil
}

// syncDir fsyncs a directory so a rename inside it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: open dir: %w", err)
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return fmt.Errorf("journal: sync dir: %w", syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("journal: close dir: %w", closeErr)
	}
	return nil
}

// NowMs returns the current wall clock in Unix milliseconds — the
// stamp managers put on events.
func NowMs() int64 { return time.Now().UnixMilli() }

var _ io.Closer = (*Journal)(nil)

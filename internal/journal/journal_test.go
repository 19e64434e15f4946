package journal

import (
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"graphsig/internal/obs"
)

func openT(t *testing.T, dir string, opt Options) (*Journal, []JobRecord) {
	t.Helper()
	j, recs, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return j, recs
}

func appendT(t *testing.T, j *Journal, evs ...Event) {
	t.Helper()
	for _, ev := range evs {
		if err := j.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
}

func closeT(t *testing.T, j *Journal) {
	t.Helper()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayFoldsLifecycle(t *testing.T) {
	dir := t.TempDir()
	j, recs := openT(t, dir, Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	appendT(t, j,
		Event{Type: EvSubmitted, Job: "a", AtMs: 10, Key: "k-a", Label: "mine a", Config: json.RawMessage(`{"v":1}`), TimeoutMs: 5000},
		Event{Type: EvSubmitted, Job: "b", AtMs: 11, Key: "k-b", Label: "mine b"},
		Event{Type: EvStarted, Job: "a", Attempt: 0},
		Event{Type: EvCheckpoint, Job: "a", State: json.RawMessage(`{"done":3}`)},
		Event{Type: EvCheckpoint, Job: "a", State: json.RawMessage(`{"done":7}`)},
		Event{Type: EvCompleted, Job: "b", AtMs: 20, Result: json.RawMessage(`{"ok":true}`)},
	)
	closeT(t, j)

	j2, recs := openT(t, dir, Options{})
	closeT(t, j2)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
	a, b := recs[0], recs[1]
	if a.ID != "a" || b.ID != "b" {
		t.Fatalf("replay order %q, %q: want submission order a, b", a.ID, b.ID)
	}
	if a.Terminal != "" || len(a.Checkpoints) != 2 || string(a.Checkpoints[0]) != `{"done":3}` ||
		string(a.Checkpoints[1]) != `{"done":7}` || a.Key != "k-a" ||
		a.Label != "mine a" || a.TimeoutMs != 5000 || string(a.Config) != `{"v":1}` {
		t.Fatalf("incomplete job folded wrong: %+v", a)
	}
	if b.Terminal != EvCompleted || string(b.Result) != `{"ok":true}` || b.FinishedMs != 20 {
		t.Fatalf("completed job folded wrong: %+v", b)
	}
}

// TestTerminalJobKeepsNoCheckpoint: once a job is completed, failed or
// cancelled nothing resumes it, so replay drops its checkpoint chain and
// compaction writes none of it back, while an unfinished job keeps its
// whole chain, in order, across compactions.
func TestTerminalJobKeepsNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	for _, id := range []string{"done", "failed", "cancelled", "live"} {
		appendT(t, j,
			Event{Type: EvSubmitted, Job: id, AtMs: 1},
			Event{Type: EvCheckpoint, Job: id, State: json.RawMessage(`{"done":1}`)},
			Event{Type: EvCheckpoint, Job: id, State: json.RawMessage(`{"from":1,"done":2}`)},
		)
	}
	appendT(t, j,
		Event{Type: EvCompleted, Job: "done", AtMs: 2, Result: json.RawMessage(`{}`)},
		Event{Type: EvFailed, Job: "failed", AtMs: 2, Error: "boom"},
		Event{Type: EvCancelled, Job: "cancelled", AtMs: 2},
	)
	closeT(t, j)

	for cycle := 0; cycle < 2; cycle++ {
		j, recs := openT(t, dir, Options{})
		closeT(t, j)
		if len(recs) != 4 {
			t.Fatalf("cycle %d: replayed %d records, want 4", cycle, len(recs))
		}
		for _, rec := range recs[:3] {
			if rec.Terminal == "" || rec.Checkpoints != nil {
				t.Fatalf("cycle %d: terminal job %s kept %d checkpoint parts", cycle, rec.ID, len(rec.Checkpoints))
			}
		}
		live := recs[3]
		if live.Terminal != "" || len(live.Checkpoints) != 2 || string(live.Checkpoints[1]) != `{"from":1,"done":2}` {
			t.Fatalf("cycle %d: unfinished job's chain folded wrong: %+v", cycle, live)
		}
		events, err := recoverEvents(filepath.Join(dir, FileName), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range events {
			if ev.Type == EvCheckpoint && ev.Job != "live" {
				t.Fatalf("cycle %d: compaction wrote a checkpoint of terminal job %s", cycle, ev.Job)
			}
		}
	}
}

func TestDoubleReplayIdempotent(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	appendT(t, j,
		Event{Type: EvSubmitted, Job: "a", AtMs: 1, Key: "k"},
		Event{Type: EvStarted, Job: "a", Attempt: 1},
		Event{Type: EvCheckpoint, Job: "a", State: json.RawMessage(`{"done":2}`)},
		Event{Type: EvSubmitted, Job: "b", AtMs: 2},
		Event{Type: EvFailed, Job: "b", AtMs: 3, Error: "boom"},
	)
	closeT(t, j)

	// Open compacts; repeated open-close cycles must keep replaying the
	// exact same records — compaction loses nothing live.
	var prev []JobRecord
	for cycle := 0; cycle < 3; cycle++ {
		j, recs := openT(t, dir, Options{})
		closeT(t, j)
		if prev != nil {
			pa, _ := json.Marshal(prev)
			ca, _ := json.Marshal(recs)
			if string(pa) != string(ca) {
				t.Fatalf("cycle %d replayed differently:\n%s\n%s", cycle, pa, ca)
			}
		}
		prev = recs
	}
	if len(prev) != 2 || prev[0].Attempt != 1 || prev[1].Error != "boom" {
		t.Fatalf("replay lost state: %+v", prev)
	}
}

func TestCorruptTailTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	appendT(t, j,
		Event{Type: EvSubmitted, Job: "a", AtMs: 1},
		Event{Type: EvSubmitted, Job: "b", AtMs: 2},
	)
	closeT(t, j)
	path := filepath.Join(dir, FileName)

	// Flip one payload byte in the final record: its CRC fails, the
	// record is cut, and the intact prefix survives.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	j2, recs := openT(t, dir, Options{Metrics: reg})
	closeT(t, j2)
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("replayed %+v, want only job a", recs)
	}
	if n := reg.Counter(obs.MJournalTruncations).Value(); n != 1 {
		t.Fatalf("truncations = %d, want 1", n)
	}
}

func TestTornFinalRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	appendT(t, j,
		Event{Type: EvSubmitted, Job: "a", AtMs: 1},
		Event{Type: EvSubmitted, Job: "b", AtMs: 2},
	)
	closeT(t, j)
	path := filepath.Join(dir, FileName)

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, 4, 9} { // mid-header, header boundary, mid-payload
		end := len(data) - cut
		if err := os.WriteFile(path, data[:end], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, recs := openT(t, dir, Options{})
		closeT(t, j2)
		if len(recs) != 1 || recs[0].ID != "a" {
			t.Fatalf("cut %d: replayed %+v, want only job a", cut, recs)
		}
		// Writes after recovery must land cleanly on the repaired tail.
		j3, _ := openT(t, dir, Options{})
		appendT(t, j3, Event{Type: EvSubmitted, Job: "c", AtMs: 3})
		closeT(t, j3)
		j4, recs := openT(t, dir, Options{})
		closeT(t, j4)
		if len(recs) != 2 || recs[1].ID != "c" {
			t.Fatalf("cut %d: post-repair append lost: %+v", cut, recs)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAbsurdLengthTreatedAsCorruption(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	appendT(t, j, Event{Type: EvSubmitted, Job: "a", AtMs: 1})
	closeT(t, j)
	path := filepath.Join(dir, FileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30) // past maxRecord
	if _, err := f.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs := openT(t, dir, Options{})
	closeT(t, j2)
	if len(recs) != 1 || recs[0].ID != "a" {
		t.Fatalf("replayed %+v, want only job a", recs)
	}
}

func TestRetentionDropsOldTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	old := time.Now().Add(-2 * time.Hour).UnixMilli()
	appendT(t, j,
		Event{Type: EvSubmitted, Job: "old-done", AtMs: old},
		Event{Type: EvCompleted, Job: "old-done", AtMs: old},
		Event{Type: EvSubmitted, Job: "old-live", AtMs: old},
		Event{Type: EvSubmitted, Job: "fresh", AtMs: NowMs()},
		Event{Type: EvCompleted, Job: "fresh", AtMs: NowMs()},
	)
	closeT(t, j)

	j2, recs := openT(t, dir, Options{Retention: time.Hour})
	closeT(t, j2)
	ids := map[string]bool{}
	for _, r := range recs {
		ids[r.ID] = true
	}
	// Terminal past retention is reaped; an incomplete job is never
	// aged out — it still needs re-running however old it is.
	if ids["old-done"] || !ids["old-live"] || !ids["fresh"] {
		t.Fatalf("retention kept wrong set: %+v", recs)
	}
}

func TestLifecycleWithoutSubmissionIgnored(t *testing.T) {
	dir := t.TempDir()
	j, _ := openT(t, dir, Options{})
	appendT(t, j,
		Event{Type: EvCheckpoint, Job: "ghost", State: json.RawMessage(`{}`)},
		Event{Type: EvCompleted, Job: "ghost"},
		Event{Type: EvSubmitted, Job: "real", AtMs: 1},
	)
	closeT(t, j)
	j2, recs := openT(t, dir, Options{})
	closeT(t, j2)
	if len(recs) != 1 || recs[0].ID != "real" {
		t.Fatalf("replayed %+v, want only job real", recs)
	}
}

func TestNilJournalIsInert(t *testing.T) {
	var j *Journal
	if err := j.Append(Event{Type: EvSubmitted, Job: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, _ := openT(t, t.TempDir(), Options{})
	closeT(t, j)
	if err := j.Append(Event{Type: EvSubmitted, Job: "x"}); err == nil {
		t.Fatal("append after close must fail")
	}
}

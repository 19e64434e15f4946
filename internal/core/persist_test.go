package core

// Durability suite: resumable Phase-3 snapshots must restart a mine
// with byte-identical output (reusing the parallelism-invariance
// fingerprint harness), invalid snapshots must be rejected into a
// from-scratch run, and the persisted config/result codecs must
// round-trip exactly.

import (
	"encoding/json"
	"strings"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/feature"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// checkpointedMine runs Mine with a checkpoint sink installed and
// returns the result plus every snapshot emitted, in order.
func checkpointedMine(t *testing.T, db []*graph.Graph, cfg Config, reg *obs.Registry) (Result, [][]byte) {
	t.Helper()
	var snaps [][]byte
	cfg.Ctl = runctl.New(runctl.Options{
		Metrics: reg,
		CheckpointSink: func(payload []byte) {
			cp := make([]byte, len(payload))
			copy(cp, payload)
			snaps = append(snaps, cp)
		},
	})
	res := Mine(db, cfg)
	return res, snaps
}

func TestResumeByteIdentical(t *testing.T) {
	db := plantedDB(60, 18, chem.SbCore())
	cfg := testConfig()
	cfg.Parallelism = 4
	cfg.CheckpointEvery = 1 // snapshot at every commit: maximal coverage

	base, snaps := checkpointedMine(t, db, cfg, nil)
	if len(snaps) == 0 {
		t.Fatalf("no snapshots emitted (VectorsMined=%d)", base.VectorsMined)
	}

	// Resume from the first, a middle, and the last snapshot: every
	// prefix must replay into the identical final answer.
	picks := map[string]int{"first": 0, "middle": len(snaps) / 2, "last": len(snaps) - 1}
	for name, i := range picks {
		rs, err := DecodeResumeState(snaps[i])
		if err != nil {
			t.Fatalf("%s snapshot: %v", name, err)
		}
		if rs.Done == 0 {
			t.Fatalf("%s snapshot committed no groups", name)
		}
		rcfg := cfg
		rcfg.Ctl = nil
		rcfg.Resume = rs
		reg := obs.NewRegistry()
		rcfg.Metrics = reg
		got := Mine(db, rcfg)
		assertSameMine(t, "resume/"+name, base, got)
		if n := reg.Counter(obs.MResumeRejected).Value(); n != 0 {
			t.Errorf("resume/%s: %d snapshots rejected, want 0", name, n)
		}
	}
}

func TestResumeAcrossParallelism(t *testing.T) {
	// A snapshot taken at one parallelism level must resume correctly
	// at another: the commit frontier is in group order regardless of
	// worker scheduling.
	db := plantedDB(50, 15, chem.SbCore())
	cfg := testConfig()
	cfg.Parallelism = 1
	base, snaps := checkpointedMine(t, db, cfg, nil)
	if len(snaps) == 0 {
		t.Skip("mine too small to checkpoint at default granularity")
	}
	rs, err := DecodeResumeState(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Ctl = nil
	rcfg.Resume = rs
	rcfg.Parallelism = 6
	assertSameMine(t, "resume across parallelism", base, Mine(db, rcfg))
}

func TestResumeRejectsForeignSnapshot(t *testing.T) {
	db := plantedDB(50, 15, chem.SbCore())
	cfg := testConfig()
	cfg.CheckpointEvery = 1
	base, snaps := checkpointedMine(t, db, cfg, nil)
	if len(snaps) == 0 {
		t.Fatal("no snapshots emitted")
	}
	rs, err := DecodeResumeState(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}

	tamper := []struct {
		name string
		mut  func(*ResumeState)
	}{
		{"wrong key", func(r *ResumeState) { r.Key = "not-this-mine" }},
		{"wrong groups hash", func(r *ResumeState) { r.GroupsHash = "diverged" }},
		{"impossible prefix", func(r *ResumeState) {
			r.Done += 1000
			r.Outcomes = append([]PersistedOutcome{}, r.Outcomes...)
			for len(r.Outcomes) < r.Done {
				r.Outcomes = append(r.Outcomes, PersistedOutcome{})
			}
		}},
		{"undecodable pattern", func(r *ResumeState) {
			r.Outcomes = append([]PersistedOutcome{}, r.Outcomes...)
			for i := range r.Outcomes {
				if len(r.Outcomes[i].Patterns) > 0 {
					ps := append([]PersistedPattern{}, r.Outcomes[i].Patterns...)
					ps[0].Graph = "t # 0\nv 0 notanint\n"
					r.Outcomes[i].Patterns = ps
					return
				}
			}
		}},
		{"disconnected pattern", func(r *ResumeState) {
			r.Outcomes = append([]PersistedOutcome{}, r.Outcomes...)
			for i := range r.Outcomes {
				if len(r.Outcomes[i].Patterns) > 0 {
					ps := append([]PersistedPattern{}, r.Outcomes[i].Patterns...)
					ps[0].Graph = "t # 0\nv 0 1\nv 1 1\nv 2 1\ne 0 1 0\n"
					r.Outcomes[i].Patterns = ps
					return
				}
			}
		}},
	}
	for _, tc := range tamper {
		bad := *rs
		tc.mut(&bad)
		rcfg := cfg
		rcfg.Resume = &bad
		reg := obs.NewRegistry()
		rcfg.Metrics = reg
		got := Mine(db, rcfg)
		// Rejected snapshot → from-scratch mine → identical answer.
		assertSameMine(t, "reject/"+tc.name, base, got)
		if n := reg.Counter(obs.MResumeRejected).Value(); n != 1 {
			t.Errorf("reject/%s: MResumeRejected = %d, want 1", tc.name, n)
		}
	}
}

func TestResumeStateRoundTrip(t *testing.T) {
	db := plantedDB(50, 15, chem.SbCore())
	cfg := testConfig()
	cfg.CheckpointEvery = 1
	_, snaps := checkpointedMine(t, db, cfg, nil)
	if len(snaps) == 0 {
		t.Fatal("no snapshots emitted")
	}
	for i, buf := range snaps {
		rs, err := DecodeResumeState(buf)
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		re, err := EncodeResumeState(rs)
		if err != nil {
			t.Fatalf("snapshot %d re-encode: %v", i, err)
		}
		if string(re) != string(buf) {
			t.Fatalf("snapshot %d did not round-trip byte-identically", i)
		}
	}
}

func TestConfigPersistRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.TopKPerLabel = 7
	cfg.Miner = MinerGSpan
	cfg.SkipVerify = true
	buf, err := EncodeConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeConfig(buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.CacheKey() != cfg.CacheKey() {
		t.Fatal("decoded config has a different CacheKey")
	}
	if back.Miner != MinerGSpan || back.TopKPerLabel != 7 || !back.SkipVerify {
		t.Fatalf("decoded config lost fields: %+v", back)
	}
}

func TestConfigPersistRejectsCustomFeatureSet(t *testing.T) {
	cfg := testConfig()
	cfg.FeatureSet = feature.NewCustomSet(nil, []graph.Label{0}, []string{"only-this"})
	if _, err := EncodeConfig(cfg); err == nil {
		t.Fatal("config with a custom feature set must not encode")
	}
}

func TestConfigPersistRejectsVersionSkew(t *testing.T) {
	buf, err := EncodeConfig(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	skew := strings.Replace(string(buf), `"v":1`, `"v":99`, 1)
	if _, err := DecodeConfig([]byte(skew)); err == nil {
		t.Fatal("version-skewed config must not decode")
	}
}

func TestResultPersistRoundTrip(t *testing.T) {
	db := plantedDB(50, 15, chem.SbCore())
	res := Mine(db, testConfig())
	if len(res.Subgraphs) == 0 {
		t.Fatal("mine found nothing to persist")
	}
	buf, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMine(t, "result round-trip", res, back)
	if back.Truncated != res.Truncated || back.GroupErrors != res.GroupErrors {
		t.Fatal("result flags did not survive the round-trip")
	}
	// Journals written while Profile was persisted carry "profileNs";
	// they must still decode, to the same answer.
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(buf, &fields); err != nil {
		t.Fatal(err)
	}
	fields["profileNs"] = json.RawMessage(`[1,2,3,4]`)
	old, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := DecodeResult(old)
	if err != nil {
		t.Fatalf("result carrying profileNs did not decode: %v", err)
	}
	assertSameMine(t, "result with profileNs", res, legacy)
}

// TestSnapshotsExtendOnePrefix: each snapshot encodes only the outcomes
// committed since the previous one and appends them to the persisted
// prefix, so every snapshot must be byte-identical to a full re-render
// of the last snapshot's outcomes cut at its own frontier — from
// scratch and after a resume, whose first snapshot carries the resumed
// prefix too. The fresh mine runs at parallelism 1, which commits one
// group at a time and so snapshots once per group: with several
// workers the snapshot count hinges on which group finishes last. The
// resume runs at parallelism 4; parallelism is not part of MineKey, so
// the resume state still matches.
func TestSnapshotsExtendOnePrefix(t *testing.T) {
	db := plantedDB(60, 18, chem.SbCore())
	cfg := testConfig()
	cfg.Parallelism = 1
	cfg.CheckpointEvery = 1
	_, snaps := checkpointedMine(t, db, cfg, nil)
	if len(snaps) < 3 {
		t.Fatalf("%d snapshots; want several", len(snaps))
	}
	rs, err := DecodeResumeState(snaps[len(snaps)/2])
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Parallelism = 4
	rcfg.Resume = rs
	_, resumed := checkpointedMine(t, db, rcfg, nil)
	if len(resumed) == 0 {
		t.Fatal("resumed mine emitted no snapshots")
	}
	for name, run := range map[string][][]byte{"fresh": snaps, "resumed": resumed} {
		last, err := DecodeResumeState(run[len(run)-1])
		if err != nil {
			t.Fatal(err)
		}
		for i, snap := range run {
			rs, err := DecodeResumeState(snap)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EncodeResumeState(&ResumeState{
				V: persistVersion, Key: last.Key, GroupsHash: last.GroupsHash,
				Done: rs.Done, Outcomes: last.Outcomes[:rs.Done],
			})
			if err != nil {
				t.Fatal(err)
			}
			if string(snap) != string(want) {
				t.Fatalf("%s snapshot %d (done %d) differs from a full re-render of its prefix", name, i, rs.Done)
			}
		}
	}
}

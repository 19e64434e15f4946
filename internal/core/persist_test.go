package core

// Durability suite: resumable Phase-3 snapshots must restart a mine
// with byte-identical output (reusing the parallelism-invariance
// fingerprint harness), invalid snapshots must be rejected into a
// from-scratch run, and the persisted config/result codecs must
// round-trip exactly.

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/feature"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
)

// checkpointedParts runs Mine with a checkpoint sink installed and
// returns the result plus every snapshot part emitted, in order.
func checkpointedParts(t *testing.T, db []*graph.Graph, cfg Config, reg *obs.Registry) (Result, [][]byte) {
	t.Helper()
	var parts [][]byte
	cfg.Ctl = runctl.New(runctl.Options{
		Metrics: reg,
		CheckpointSink: func(payload []byte) {
			parts = append(parts, append([]byte(nil), payload...))
		},
	})
	res := Mine(db, cfg)
	return res, parts
}

// checkpointedMine runs a fresh Mine with a checkpoint sink installed
// and returns the result plus, for every part emitted, the full
// snapshot its chain applies to — what a resumer holding the chain up
// to that part resumes from — in order.
func checkpointedMine(t *testing.T, db []*graph.Graph, cfg Config, reg *obs.Registry) (Result, [][]byte) {
	t.Helper()
	res, parts := checkpointedParts(t, db, cfg, reg)
	snaps := make([][]byte, len(parts))
	for i := range parts {
		rs, err := ResumeChain(parts[:i+1])
		if err != nil {
			t.Fatalf("chain through part %d: %v", i, err)
		}
		if snaps[i], err = EncodeResumeState(rs); err != nil {
			t.Fatal(err)
		}
	}
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

// TestSnapshotsExtendOnePrefix: each part carries only the outcomes
// committed since the previous one — it starts where the chain before
// it ends — and the chain applied through every part must encode
// byte-identically to a full re-render of the final outcomes cut at
// that part's frontier: from scratch, and after a resume, whose first
// part starts at the resumed prefix and extends the chain resumed
// from. The fresh mine runs at parallelism 1, which commits one group
// at a time and so emits a part per group: with several workers the
// part count hinges on which group finishes last. The resume runs at
// parallelism 4; parallelism is not part of MineKey, so the chain
// still matches.
func TestSnapshotsExtendOnePrefix(t *testing.T) {
	db := plantedDB(60, 18, chem.SbCore())
	cfg := testConfig()
	cfg.Parallelism = 1
	cfg.CheckpointEvery = 1
	_, parts := checkpointedParts(t, db, cfg, nil)
	if len(parts) < 3 {
		t.Fatalf("%d snapshot parts; want several", len(parts))
	}
	prefix := parts[:len(parts)/2+1]
	rs, err := ResumeChain(prefix)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := cfg
	rcfg.Parallelism = 4
	rcfg.Resume = rs
	_, resumed := checkpointedParts(t, db, rcfg, nil)
	if len(resumed) == 0 {
		t.Fatal("resumed mine emitted no snapshot parts")
	}
	chains := map[string][][]byte{
		"fresh":   parts,
		"resumed": append(append([][]byte(nil), prefix...), resumed...),
	}
	for name, chain := range chains {
		last, err := ResumeChain(chain)
		if err != nil {
			t.Fatal(err)
		}
		done := 0
		for i, buf := range chain {
			part, err := DecodeResumeState(buf)
			if err != nil {
				t.Fatal(err)
			}
			if part.From != done || part.Done <= done {
				t.Fatalf("%s part %d covers [%d, %d); the chain before it ends at %d", name, i, part.From, part.Done, done)
			}
			done = part.Done
			applied, err := ResumeChain(chain[:i+1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := EncodeResumeState(applied)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EncodeResumeState(&ResumeState{
				V: persistVersion, Key: last.Key, GroupsHash: last.GroupsHash,
				Done: done, Outcomes: last.Outcomes[:done],
			})
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s chain through part %d (done %d) differs from a full re-render of its prefix", name, i, done)
			}
		}
	}
}

// TestParentFormatSnapshotResumes: testdata/resume_full_v1.json is a
// full snapshot written before snapshots came in parts — no "from"
// field, every outcome from group 0 on — by the mine below, cut at its
// middle checkpoint. It must resume to the uninterrupted answer on its
// own, and a resumed run's parts must extend it into the same chain a
// fresh run applies to.
func TestParentFormatSnapshotResumes(t *testing.T) {
	legacy, err := os.ReadFile("testdata/resume_full_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(legacy), `"from"`) {
		t.Fatal("fixture carries a from field; it must be in the parent format")
	}
	db := plantedDB(60, 18, chem.SbCore())
	cfg := testConfig()
	cfg.Parallelism = 1
	cfg.CheckpointEvery = 1
	base, snaps := checkpointedMine(t, db, cfg, nil)
	last, err := DecodeResumeState(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}

	rs, err := ResumeChain([][]byte{legacy})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Done == 0 || rs.Done >= last.Done {
		t.Fatalf("fixture commits %d of %d groups; want a proper prefix", rs.Done, last.Done)
	}
	rcfg := cfg
	rcfg.Resume = rs
	reg := obs.NewRegistry()
	rcfg.Metrics = reg
	got, resumed := checkpointedParts(t, db, rcfg, reg)
	assertSameMine(t, "parent-format resume", base, got)
	if n := reg.Counter(obs.MResumeRejected).Value(); n != 0 {
		t.Fatalf("parent-format snapshot rejected %d times", n)
	}
	full, err := ResumeChain(append([][]byte{legacy}, resumed...))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := EncodeResumeState(full)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(snaps[len(snaps)-1]) {
		t.Fatal("parent-format snapshot extended by a resumed run's parts differs from a fresh run's chain")
	}
}

// FuzzResumeChain splits one mine's committed outcomes into arbitrary
// part sequences, two input bytes per part: legacy full snapshots
// (From 0), deltas that start where the chain ends, and retries that
// start over from a shorter prefix. Each chain must apply to the
// encoding of one full snapshot of the prefix its last part ends at. A
// part that starts past the chain's end, or a later part carrying
// another mine's Key or GroupsHash, must fail the chain.
func FuzzResumeChain(f *testing.F) {
	f.Add([]byte{0, 5})
	f.Add([]byte{1, 3, 1, 7, 1, 200})
	f.Add([]byte{0, 9, 1, 2, 2, 4, 1, 1})
	f.Add([]byte{1, 4, 3, 0})
	f.Add([]byte{1, 4, 1, 2, 3, 1})
	f.Add([]byte{0, 30, 0, 2, 1, 0})

	db := plantedDB(60, 18, chem.SbCore())
	cfg := testConfig()
	cfg.Parallelism = 1
	cfg.CheckpointEvery = 1
	var parts [][]byte
	cfg.Ctl = runctl.New(runctl.Options{CheckpointSink: func(p []byte) {
		parts = append(parts, append([]byte(nil), p...))
	}})
	Mine(db, cfg)
	final, err := ResumeChain(parts)
	if err != nil {
		f.Fatal(err)
	}
	all, n := final.Outcomes, final.Done
	encode := func(t *testing.T, from, done int, key, gh string) []byte {
		buf, err := EncodeResumeState(&ResumeState{
			V: persistVersion, Key: key, GroupsHash: gh,
			From: from, Done: done, Outcomes: all[from:done],
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		var chain [][]byte
		done, broken := 0, false
		for i := 0; i+1 < len(ops) && !broken; i += 2 {
			x := int(ops[i+1])
			switch ops[i] % 4 {
			case 0: // a legacy full snapshot
				d := x % (n + 1)
				chain = append(chain, encode(t, 0, d, final.Key, final.GroupsHash))
				done = d
			case 1: // a delta from the chain's end
				if done == n {
					continue
				}
				d := done + 1 + x%(n-done)
				chain = append(chain, encode(t, done, d, final.Key, final.GroupsHash))
				done = d
			case 2: // a retry that starts over from a shorter prefix
				from := x % (done + 1)
				if from == n {
					continue
				}
				d := from + 1 + (x/7)%(n-from)
				chain = append(chain, encode(t, from, d, final.Key, final.GroupsHash))
				done = d
			case 3: // a gap, or another mine's part
				switch {
				case x%2 == 0 && done < n:
					chain = append(chain, encode(t, done+1, max(done+1, min(n, done+1+x/2)), final.Key, final.GroupsHash))
				case x%2 == 1 && done > 0:
					from := 1 + x%done
					key, gh := final.Key, "foreign"
					if x%4 == 1 {
						key, gh = "foreign", final.GroupsHash
					}
					chain = append(chain, encode(t, from, done, key, gh))
				default:
					continue
				}
				broken = true
			}
		}
		if len(chain) == 0 {
			return
		}
		got, err := ResumeChain(chain)
		if broken {
			if err == nil {
				t.Fatalf("chain with a gap or a foreign part applied to %d groups", got.Done)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		buf, err := EncodeResumeState(got)
		if err != nil {
			t.Fatal(err)
		}
		if want := encode(t, 0, done, final.Key, final.GroupsHash); string(buf) != string(want) {
			t.Fatalf("chain of %d parts applied to a snapshot unlike the full one of %d groups", len(chain), done)
		}
	})
}

package core

// Durability suite: resumable Phase-3 snapshots must restart a mine
// with byte-identical output (reusing the parallelism-invariance
// fingerprint harness), invalid snapshots must be rejected into a
// from-scratch run, and the persisted config/result codecs must
// round-trip exactly.

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
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
		if len(rs.Groups) == 0 {
			t.Fatalf("%s snapshot holds no groups", name)
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
	// at another: a snapshot names its groups by index, and the merge
	// folds them in group order regardless of worker scheduling.
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
		{"impossible group", func(r *ResumeState) {
			r.Groups = append(append([]int{}, r.Groups...), base.VectorsMined+1000)
			r.Outcomes = append(append([]PersistedOutcome{}, r.Outcomes...), PersistedOutcome{})
		}},
		{"groups and outcomes differ in length", func(r *ResumeState) {
			r.Outcomes = append(append([]PersistedOutcome{}, r.Outcomes...), PersistedOutcome{})
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

// TestSnapshotPartsCarryNewGroups: each part carries only groups that
// no earlier part of the same run carried, and the chain applied
// through every part must encode byte-identically to a full re-render
// of the union of the groups its parts carry: from scratch, and after a
// resume, whose parts carry none of the groups of the chain it resumed
// from. The fresh mine runs at parallelism 4, so parts follow the
// order groups finish in; the resume at parallelism 1 — parallelism is
// not part of MineKey, so the chain still matches.
func TestSnapshotPartsCarryNewGroups(t *testing.T) {
	db := plantedDB(60, 18, chem.SbCore())
	cfg := testConfig()
	cfg.Parallelism = 4
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
	rcfg.Parallelism = 1
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
		outcome := map[int]PersistedOutcome{}
		for i, gi := range last.Groups {
			outcome[gi] = last.Outcomes[i]
		}
		if len(last.Groups) != len(outcome) {
			t.Fatalf("%s chain applies to a snapshot that lists a group twice", name)
		}
		carried := map[int]bool{}
		for i, buf := range chain {
			part, err := DecodeResumeState(buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(part.Groups) == 0 {
				t.Fatalf("%s part %d carries no group", name, i)
			}
			for _, gi := range part.Groups {
				if carried[gi] {
					t.Fatalf("%s part %d carries group %d, which an earlier part carried", name, i, gi)
				}
				carried[gi] = true
			}
			applied, err := ResumeChain(chain[:i+1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := EncodeResumeState(applied)
			if err != nil {
				t.Fatal(err)
			}
			union := &ResumeState{V: persistVersion, Key: last.Key, GroupsHash: last.GroupsHash, Groups: []int{}}
			for gi := range carried {
				union.Groups = append(union.Groups, gi)
			}
			slices.Sort(union.Groups)
			for _, gi := range union.Groups {
				union.Outcomes = append(union.Outcomes, outcome[gi])
			}
			want, err := EncodeResumeState(union)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Fatalf("%s chain through part %d (%d groups) differs from a full re-render of their union", name, i, len(carried))
			}
		}
	}
}

// TestCheckpointPartsEveryNGroups: a part is emitted each time
// CheckpointEvery groups have finished since the last one, whatever
// the order they finish in. So the part count does not depend on
// parallelism, every part carries exactly CheckpointEvery groups, and
// at any moment fewer than CheckpointEvery finished groups are not yet
// in a part. A mine resumed from the chain cut after any part answers
// byte-identically to an uninterrupted one.
func TestCheckpointPartsEveryNGroups(t *testing.T) {
	const every = 8
	db := plantedDB(120, 30, chem.SbCore())
	cfg := testConfig()
	cfg.CheckpointEvery = every
	var base Result
	wantParts := -1
	for _, par := range []int{1, 2, 4} {
		pcfg := cfg
		pcfg.Parallelism = par
		res, parts := checkpointedParts(t, db, pcfg, nil)
		if wantParts < 0 {
			base, wantParts = res, res.VectorsMined/every
			if wantParts < 3 {
				t.Fatalf("%d groups make %d parts; want several", res.VectorsMined, wantParts)
			}
		}
		assertSameMine(t, fmt.Sprintf("parallelism %d", par), base, res)
		t.Logf("parallelism %d: %d groups, %d parts", par, res.VectorsMined, len(parts))
		if len(parts) != wantParts {
			t.Errorf("parallelism %d: %d parts; want %d (%d groups, every %d)", par, len(parts), wantParts, res.VectorsMined, every)
		}
		for i, buf := range parts {
			part, err := DecodeResumeState(buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(part.Groups) != every {
				t.Errorf("parallelism %d: part %d carries %d groups; want %d", par, i, len(part.Groups), every)
			}
			chain, err := ResumeChain(parts[:i+1])
			if err != nil {
				t.Fatal(err)
			}
			if len(chain.Groups) != every*(i+1) {
				t.Errorf("parallelism %d: chain through part %d holds %d groups; want %d", par, i, len(chain.Groups), every*(i+1))
			}
			// Resuming after every part at parallelism 4, and after the
			// first, middle and last at 1 and 2, keeps the test short
			// under the race detector.
			if par != 4 && i != 0 && i != len(parts)/2 && i != len(parts)-1 {
				continue
			}
			rcfg := cfg
			rcfg.Parallelism = par
			rcfg.Resume = chain
			assertSameMine(t, fmt.Sprintf("parallelism %d, resumed after part %d", par, i), base, Mine(db, rcfg))
		}
	}
}

// TestTruncatedMineCheckpointsOnlyWholeGroups: a mine cut short by a
// miner-step budget inside Phase 3 persists only groups mined before
// the trip, so a mine resumed from its chain without the budget
// answers byte-identically to an uninterrupted one. A group whose FSG
// mine the trip cut short is merged into the truncated answer but
// never checkpointed.
func TestTruncatedMineCheckpointsOnlyWholeGroups(t *testing.T) {
	db := plantedDB(60, 18, chem.SbCore())
	cfg := testConfig()
	cfg.Parallelism = 1
	cfg.CheckpointEvery = 1
	base := Mine(db, cfg)
	for _, budget := range []int64{30000, 100000} {
		var parts [][]byte
		bcfg := cfg
		bcfg.Ctl = runctl.New(runctl.Options{
			Budgets:        runctl.Budgets{MinerSteps: budget},
			CheckpointSink: func(p []byte) { parts = append(parts, append([]byte(nil), p...)) },
		})
		if res := Mine(db, bcfg); !res.Truncated || res.Degradation.Stage != runctl.StageFSG {
			t.Fatalf("budget %d: degradation %+v; want a trip inside a group's FSG mine", budget, res.Degradation)
		}
		if len(parts) == 0 {
			t.Fatalf("budget %d: no group finished before the trip; the resume is vacuous", budget)
		}
		rs, err := ResumeChain(parts)
		if err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.Resume = rs
		assertSameMine(t, fmt.Sprintf("budget %d, resumed from %d groups", budget, len(rs.Groups)), base, Mine(db, rcfg))
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
	if len(rs.Groups) == 0 || len(rs.Groups) >= len(last.Groups) {
		t.Fatalf("fixture holds %d of %d groups; want a proper subset", len(rs.Groups), len(last.Groups))
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

// FuzzResumeChain builds chains of snapshot parts over one mine's
// finished outcomes, three input bytes per part: parts listing groups
// out of order, with indices repeated within and across parts; parts in
// the parent format, a range [From, Done); parts that repeat groups an
// earlier part carried; and parts carrying another mine's Key or
// GroupsHash. A chain whose parts all carry one identity must apply to
// the encoding of one snapshot of the union of their groups, ordered by
// index; a chain that mixes identities must fail.
func FuzzResumeChain(f *testing.F) {
	f.Add([]byte{0, 0, 5})
	f.Add([]byte{1, 3, 1, 1, 7, 200})
	f.Add([]byte{0, 9, 1, 2, 2, 4, 1, 1, 0})
	f.Add([]byte{1, 4, 3, 3, 0, 1})
	f.Add([]byte{1, 4, 1, 2, 3, 1, 3, 2, 9})
	f.Add([]byte{0, 30, 0, 2, 1, 0})
	f.Add([]byte{3, 1, 4})

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
	n := len(final.Groups)
	for i, gi := range final.Groups {
		if gi != i {
			f.Fatalf("the mine's chain lists group %d at %d; want every group once", gi, i)
		}
	}
	type identity struct{ key, gh string }
	own := identity{final.Key, final.GroupsHash}
	encode := func(t *testing.T, id identity, rs ResumeState) []byte {
		rs.V, rs.Key, rs.GroupsHash = persistVersion, id.key, id.gh
		buf, err := EncodeResumeState(&rs)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	listed := func(gis []int) ResumeState {
		rs := ResumeState{Groups: gis, Outcomes: []PersistedOutcome{}}
		for _, gi := range gis {
			rs.Outcomes = append(rs.Outcomes, final.Outcomes[gi])
		}
		return rs
	}

	f.Fuzz(func(t *testing.T, ops []byte) {
		var chain [][]byte
		union := map[int]bool{}
		ids := map[identity]bool{}
		var last identity
		for i := 0; i+2 < len(ops); i += 3 {
			a, b := int(ops[i+1]), int(ops[i+2])
			id := own
			var rs ResumeState
			switch ops[i] % 4 {
			case 0: // the parent format: the range [From, Done)
				from := a % (n + 1)
				done := from + b%(n-from+1)
				rs = ResumeState{From: from, Done: done, Outcomes: final.Outcomes[from:done]}
				for gi := from; gi < done; gi++ {
					union[gi] = true
				}
			case 1: // groups out of order, an index possibly repeated
				gis := make([]int, 1+b%6)
				for k := range gis {
					gis[k] = (a + (len(gis)-k)*(b|1)) % n
					union[gis[k]] = true
				}
				rs = listed(gis)
			case 2: // groups an earlier part carried, in reverse
				var gis []int
				for gi := n - 1; gi >= 0 && len(gis) <= a%4; gi-- {
					if union[gi] && (gi+b)%3 != 0 {
						gis = append(gis, gi)
					}
				}
				if len(gis) == 0 {
					continue
				}
				rs = listed(gis)
			case 3: // another mine's part
				id = identity{"foreign", own.gh}
				if a%2 == 1 {
					id = identity{own.key, "foreign"}
				}
				gi := b % n
				union[gi] = true
				rs = listed([]int{gi})
			}
			chain = append(chain, encode(t, id, rs))
			ids[id], last = true, id
		}
		if len(chain) == 0 {
			return
		}
		got, err := ResumeChain(chain)
		if len(ids) > 1 {
			if err == nil {
				t.Fatalf("chain mixing %d mines' parts applied to %d groups", len(ids), len(got.Groups))
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		gis := []int{}
		for gi := range union {
			gis = append(gis, gi)
		}
		slices.Sort(gis)
		buf, err := EncodeResumeState(got)
		if err != nil {
			t.Fatal(err)
		}
		if want := encode(t, last, listed(gis)); string(buf) != string(want) {
			t.Fatalf("chain of %d parts applied to a snapshot unlike the one of their %d groups", len(chain), len(gis))
		}
	})
}

package core

// persist.go serializes the durable artifacts of a mine: the
// persistable mining parameters, resumable Phase-3 snapshots, and
// completed results. The jobs layer journals these byte payloads in its
// write-ahead log (internal/journal) so a crashed process can re-enqueue
// incomplete jobs — resuming Phase 3 from the last snapshot — and
// surface finished results after restart. All encodings are
// deterministic: JSON over structs (fixed field order) with graphs in
// the integer-label transaction text format, which round-trips node
// order, edge order, and labels exactly.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"graphsig/internal/dfscode"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
)

// persistedConfig is the wire form of a Config's mining parameters —
// exactly the CacheKey fields. The Alphabet travels as its ordered name
// list (label values are intern order, so the list rebuilds an
// identical alphabet); a custom FeatureSet is not carried — the serving
// path always derives the feature set from the database — and the
// embedded Key lets DecodeConfig prove the reconstruction is
// identity-preserving.
type persistedConfig struct {
	V   int    `json:"v"`
	Key string `json:"key"`

	Alphabet []string `json:"alphabet,omitempty"`

	Alpha              float64 `json:"alpha"`
	Bins               int     `json:"bins"`
	MaxPvalue          float64 `json:"maxPvalue"`
	MinFreqPct         float64 `json:"minFreqPct"`
	MinSupportFloor    int     `json:"minSupportFloor"`
	CutoffRadius       int     `json:"cutoffRadius"`
	FSMFreqPct         float64 `json:"fsmFreqPct"`
	TopAtoms           int     `json:"topAtoms"`
	Miner              int     `json:"miner"`
	MaxVectorsPerLabel int     `json:"maxVectorsPerLabel"`
	TopKPerLabel       int     `json:"topKPerLabel"`
	MaxGroupSize       int     `json:"maxGroupSize"`
	MaxPatternEdges    int     `json:"maxPatternEdges"`
	SkipVerify         bool    `json:"skipVerify"`
	Vectorizer         int     `json:"vectorizer"`
}

// persistVersion tags every persisted payload; bump on schema change so
// a journal written by an older build is rejected instead of misread.
const persistVersion = 1

// EncodeConfig serializes cfg's mining parameters for the job journal.
// It fails when the config is not round-trippable — a custom Alphabet
// or FeatureSet whose identity the wire form cannot carry — so callers
// learn at submit time that such a job cannot be made durable, rather
// than replaying it into a different mine after a crash.
func EncodeConfig(cfg Config) ([]byte, error) {
	fillConfig(&cfg)
	pc := persistedConfig{
		V:                  persistVersion,
		Key:                cfg.CacheKey(),
		Alpha:              cfg.Alpha,
		Bins:               cfg.Bins,
		MaxPvalue:          cfg.MaxPvalue,
		MinFreqPct:         cfg.MinFreqPct,
		MinSupportFloor:    cfg.MinSupportFloor,
		CutoffRadius:       cfg.CutoffRadius,
		FSMFreqPct:         cfg.FSMFreqPct,
		TopAtoms:           cfg.TopAtoms,
		Miner:              int(cfg.Miner),
		MaxVectorsPerLabel: cfg.MaxVectorsPerLabel,
		TopKPerLabel:       cfg.TopKPerLabel,
		MaxGroupSize:       cfg.MaxGroupSize,
		MaxPatternEdges:    cfg.MaxPatternEdges,
		SkipVerify:         cfg.SkipVerify,
		Vectorizer:         int(cfg.Vectorizer),
	}
	if cfg.Alphabet != nil {
		pc.Alphabet = cfg.Alphabet.Names()
	}
	buf, err := json.Marshal(pc)
	if err != nil {
		return nil, fmt.Errorf("core: encode config: %w", err)
	}
	if rt, err := DecodeConfig(buf); err != nil || rt.CacheKey() != pc.Key {
		return nil, fmt.Errorf("core: config is not persistable (custom alphabet or feature set); journal replay would mine a different request")
	}
	return buf, nil
}

// DecodeConfig reconstructs a journaled config. The restored config's
// CacheKey must equal the recorded one; a mismatch means the schema or
// defaults drifted since the journal was written, and the record is
// rejected rather than silently replayed as a different mine.
func DecodeConfig(data []byte) (Config, error) {
	var pc persistedConfig
	if err := json.Unmarshal(data, &pc); err != nil {
		return Config{}, fmt.Errorf("core: decode config: %w", err)
	}
	if pc.V != persistVersion {
		return Config{}, fmt.Errorf("core: persisted config version %d, want %d", pc.V, persistVersion)
	}
	cfg := Config{
		Alpha:              pc.Alpha,
		Bins:               pc.Bins,
		MaxPvalue:          pc.MaxPvalue,
		MinFreqPct:         pc.MinFreqPct,
		MinSupportFloor:    pc.MinSupportFloor,
		CutoffRadius:       pc.CutoffRadius,
		FSMFreqPct:         pc.FSMFreqPct,
		TopAtoms:           pc.TopAtoms,
		Miner:              MinerKind(pc.Miner),
		MaxVectorsPerLabel: pc.MaxVectorsPerLabel,
		TopKPerLabel:       pc.TopKPerLabel,
		MaxGroupSize:       pc.MaxGroupSize,
		MaxPatternEdges:    pc.MaxPatternEdges,
		SkipVerify:         pc.SkipVerify,
		Vectorizer:         VectorizerKind(pc.Vectorizer),
	}
	if len(pc.Alphabet) > 0 {
		a := graph.NewAlphabet()
		for _, name := range pc.Alphabet {
			a.Intern(name)
		}
		cfg.Alphabet = a
	}
	fillConfig(&cfg)
	if got := cfg.CacheKey(); got != pc.Key {
		return Config{}, fmt.Errorf("core: persisted config key %s restores to %s; defaults drifted", pc.Key[:12], got[:12])
	}
	return cfg, nil
}

// PersistedPattern is one mined pattern in wire form.
type PersistedPattern struct {
	// Graph is the pattern in integer-label transaction text.
	Graph string `json:"graph"`
	// Support is the pattern's frequency within its group.
	Support int `json:"support"`
}

// PersistedOutcome is one group's Phase-3 outcome in wire form — enough
// to replay the group-merge without re-mining the group.
type PersistedOutcome struct {
	Windows  int                `json:"windows"`
	Mined    bool               `json:"mined,omitempty"`
	Pruned   bool               `json:"pruned,omitempty"`
	Panicked bool               `json:"panicked,omitempty"`
	Patterns []PersistedPattern `json:"patterns,omitempty"`
}

// ResumeState is one part of a resumable snapshot chain: the outcomes
// of the vector groups it lists. A mine emits one part per checkpoint,
// carrying the groups finished since the previous one in the order they
// finished; ResumeChain unions a chain of parts into one snapshot
// ordered by group index, the form Config.Resume takes. A mine handed a
// valid snapshot mines only the groups it lacks and produces a final
// Result byte-identical to an uninterrupted run — the merge replays
// recorded outcomes in group order, and the graph text codec
// round-trips patterns exactly.
type ResumeState struct {
	// V is the snapshot schema version.
	V int `json:"v"`
	// Key binds the snapshot to one (database fingerprint, config)
	// identity — core.MineKey of the run that emitted it.
	Key string `json:"key"`
	// GroupsHash fingerprints the Phase-2 vector-group list the
	// snapshot indexes into. Phases 1–2 are deterministic, so a resumed
	// run recomputes the same list; the hash proves it before the
	// outcomes are trusted.
	GroupsHash string `json:"groupsHash"`
	// Groups lists the group indices the part carries: Outcomes[i] is
	// group Groups[i]'s.
	Groups []int `json:"groups"`
	// From and Done are the parent format, which carried the groups
	// [From, Done) and no Groups. DecodeResumeState turns them into
	// Groups, so the snapshots and parts written before parts listed
	// their groups still resume.
	From int `json:"from,omitempty"`
	Done int `json:"done,omitempty"`
	// Outcomes are the part's outcomes, one per entry of Groups.
	Outcomes []PersistedOutcome `json:"outcomes"`
}

// EncodeResumeState serializes a snapshot part for the journal.
func EncodeResumeState(rs *ResumeState) ([]byte, error) {
	buf, err := json.Marshal(rs)
	if err != nil {
		return nil, fmt.Errorf("core: encode resume state: %w", err)
	}
	return buf, nil
}

// DecodeResumeState parses one journaled snapshot part. A part in the
// parent format decodes as the range [From, Done).
func DecodeResumeState(data []byte) (*ResumeState, error) {
	var rs ResumeState
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("core: decode resume state: %w", err)
	}
	if rs.V != persistVersion {
		return nil, fmt.Errorf("core: resume state version %d, want %d", rs.V, persistVersion)
	}
	if rs.Groups == nil {
		if rs.From < 0 || rs.Done-rs.From != len(rs.Outcomes) {
			return nil, fmt.Errorf("core: resume state covers groups [%d, %d) but carries %d outcomes", rs.From, rs.Done, len(rs.Outcomes))
		}
		rs.Groups = make([]int, 0, len(rs.Outcomes))
		for gi := rs.From; gi < rs.Done; gi++ {
			rs.Groups = append(rs.Groups, gi)
		}
	}
	rs.From, rs.Done = 0, 0
	if len(rs.Groups) != len(rs.Outcomes) {
		return nil, fmt.Errorf("core: resume state lists %d groups but carries %d outcomes", len(rs.Groups), len(rs.Outcomes))
	}
	return &rs, nil
}

// ResumeChain decodes a chain of snapshot parts and unions them into
// one snapshot ordered by group index; a lone full snapshot is a chain
// of one. Every part must carry the first part's Key and GroupsHash. A
// group carried twice — a retry re-mined it — keeps one outcome: both
// copies are the same. A foreign or undecodable part fails the chain,
// and the caller mines from scratch.
func ResumeChain(parts [][]byte) (*ResumeState, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("core: empty resume chain")
	}
	var first *ResumeState
	byGroup := map[int]PersistedOutcome{}
	for i, buf := range parts {
		part, err := DecodeResumeState(buf)
		if err != nil {
			return nil, fmt.Errorf("core: resume chain part %d: %w", i, err)
		}
		if first == nil {
			first = part
		} else if part.Key != first.Key || part.GroupsHash != first.GroupsHash {
			return nil, fmt.Errorf("core: resume chain part %d belongs to another mine", i)
		}
		for k, gi := range part.Groups {
			byGroup[gi] = part.Outcomes[k]
		}
	}
	full := &ResumeState{V: persistVersion, Key: first.Key, GroupsHash: first.GroupsHash, Groups: make([]int, 0, len(byGroup))}
	for gi := range byGroup {
		full.Groups = append(full.Groups, gi)
	}
	slices.Sort(full.Groups)
	full.Outcomes = make([]PersistedOutcome, len(full.Groups))
	for i, gi := range full.Groups {
		full.Outcomes[i] = byGroup[gi]
	}
	return full, nil
}

// encodeGraphText renders g in integer-label transaction text.
func encodeGraphText(g *graph.Graph) (string, error) {
	var b strings.Builder
	if err := graph.WriteDB(&b, []*graph.Graph{g}, nil); err != nil {
		return "", err
	}
	return b.String(), nil
}

// decodeGraphText parses exactly one graph from transaction text.
func decodeGraphText(s string) (*graph.Graph, error) {
	gs, err := graph.ReadDB(strings.NewReader(s), nil)
	if err != nil {
		return nil, err
	}
	if len(gs) != 1 {
		return nil, fmt.Errorf("core: pattern text holds %d graphs, want 1", len(gs))
	}
	return gs[0], nil
}

// persistOutcomes converts the outcomes of groups gis to wire form.
func persistOutcomes(outcomes []groupOutcome, gis []int) ([]PersistedOutcome, error) {
	out := make([]PersistedOutcome, len(gis))
	for i, gi := range gis {
		o := outcomes[gi]
		po := PersistedOutcome{Windows: o.windows, Mined: o.mined, Pruned: o.pruned, Panicked: o.panicked}
		for _, p := range o.patterns {
			text, err := encodeGraphText(p.Code.Graph())
			if err != nil {
				return nil, fmt.Errorf("core: persist group %d pattern: %w", gi, err)
			}
			po.Patterns = append(po.Patterns, PersistedPattern{Graph: text, Support: p.Support})
		}
		out[i] = po
	}
	return out, nil
}

// restoreOutcomes converts wire-form outcomes back to the merge's
// internal shape, reparsing pattern graphs. The wire form carries no
// DFS code, so each pattern's minimum code is recomputed here; the code
// is the whole pattern, as the miners emit it. A pattern that
// is not a connected graph with an edge, which no miner emits, fails
// the restore.
func restoreOutcomes(persisted []PersistedOutcome) ([]groupOutcome, error) {
	out := make([]groupOutcome, len(persisted))
	for i, po := range persisted {
		o := groupOutcome{done: true, windows: po.Windows, mined: po.Mined, pruned: po.Pruned, panicked: po.Panicked}
		for _, p := range po.Patterns {
			g, err := decodeGraphText(p.Graph)
			if err != nil {
				return nil, fmt.Errorf("core: restore outcome %d pattern: %w", i, err)
			}
			if g.NumEdges() == 0 || !g.IsConnected() {
				return nil, fmt.Errorf("core: restore outcome %d pattern: not a connected graph with an edge", i)
			}
			code := dfscode.MinimumCode(g)
			o.patterns = append(o.patterns, dfscode.Pattern{Code: code, Support: p.Support})
		}
		out[i] = o
	}
	return out, nil
}

// groupsHash fingerprints the Phase-2 group list: count, per-group
// label, significance, support, and the exact supporting regions. Two
// runs over the same database and config produce the same hash, so a
// match proves a snapshot's outcome indices address the same groups.
func groupsHash(groups []VectorGroup) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeInt(int64(len(groups)))
	for _, g := range groups {
		writeInt(int64(g.Label))
		writeInt(int64(math.Float64bits(g.Sig.LogPValue)))
		writeInt(int64(g.Sig.Support))
		writeInt(int64(len(g.Nodes)))
		for _, nv := range g.Nodes {
			writeInt(int64(nv.GraphID))
			writeInt(int64(nv.NodeID))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// restoreSnapshot vets rs against the run's identity and restores its
// outcomes into outcomes, one entry per group, marked done. Any
// mismatch — wrong database/config key, diverged group list, a group
// index out of range, undecodable pattern — rejects the snapshot
// (counted on MResumeRejected) and the mine starts from scratch:
// resuming wrong is strictly worse than resuming slow.
func restoreSnapshot(outcomes []groupOutcome, rs *ResumeState, key, gh string, reg *obs.Registry) {
	if rs == nil {
		return
	}
	restored, err := restoreOutcomes(rs.Outcomes)
	if err != nil || rs.Key != key || rs.GroupsHash != gh || len(rs.Groups) != len(restored) ||
		slices.ContainsFunc(rs.Groups, func(gi int) bool { return gi < 0 || gi >= len(outcomes) }) {
		reg.Counter(obs.MResumeRejected).Inc()
		return
	}
	for i, gi := range rs.Groups {
		outcomes[gi] = restored[i]
	}
}

// PersistedSubgraph is one result pattern in wire form.
type PersistedSubgraph struct {
	Graph           string  `json:"graph"`
	Canonical       string  `json:"canonical"`
	SourceLabel     int     `json:"sourceLabel"`
	VectorPValue    float64 `json:"vectorPValue"`
	VectorLogPValue float64 `json:"vectorLogPValue"`
	VectorSupport   int     `json:"vectorSupport"`
	GroupSize       int     `json:"groupSize"`
	GroupSupport    int     `json:"groupSupport"`
	Support         int     `json:"support"`
	Frequency       float64 `json:"frequency"`
	Unverified      bool    `json:"unverified,omitempty"`
}

// persistedResult is the wire form of a completed Result. Profile is
// not persisted: it times one process's run, and a decoded result is
// served, never profiled. Journals written while it was carried (as
// "profileNs") still decode; encoding/json skips the field.
type persistedResult struct {
	V            int                 `json:"v"`
	Subgraphs    []PersistedSubgraph `json:"subgraphs"`
	VectorsMined int                 `json:"vectorsMined"`
	GroupsMined  int                 `json:"groupsMined"`
	GroupsPruned int                 `json:"groupsPruned"`
	GroupErrors  int                 `json:"groupErrors"`
	Truncated    bool                `json:"truncated"`
	Degradation  json.RawMessage     `json:"degradation,omitempty"`
}

// EncodeResult serializes a finished mine for the journal, so a
// restarted process can surface completed jobs' results without
// re-mining. Float fields survive exactly (Go's JSON encoder emits
// shortest round-trip representations).
func EncodeResult(res Result) ([]byte, error) {
	pr := persistedResult{
		V:            persistVersion,
		VectorsMined: res.VectorsMined,
		GroupsMined:  res.GroupsMined,
		GroupsPruned: res.GroupsPruned,
		GroupErrors:  res.GroupErrors,
		Truncated:    res.Truncated,
	}
	deg, err := json.Marshal(res.Degradation)
	if err != nil {
		return nil, fmt.Errorf("core: encode degradation: %w", err)
	}
	pr.Degradation = deg
	for _, sg := range res.Subgraphs {
		text, err := encodeGraphText(sg.Graph)
		if err != nil {
			return nil, fmt.Errorf("core: encode result pattern %s: %w", sg.Canonical, err)
		}
		pr.Subgraphs = append(pr.Subgraphs, PersistedSubgraph{
			Graph:           text,
			Canonical:       sg.Canonical,
			SourceLabel:     int(sg.SourceLabel),
			VectorPValue:    sg.VectorPValue,
			VectorLogPValue: sg.VectorLogPValue,
			VectorSupport:   sg.VectorSupport,
			GroupSize:       sg.GroupSize,
			GroupSupport:    sg.GroupSupport,
			Support:         sg.Support,
			Frequency:       sg.Frequency,
			Unverified:      sg.Unverified,
		})
	}
	return json.Marshal(pr)
}

// DecodeResult reconstructs a journaled Result.
func DecodeResult(data []byte) (Result, error) {
	var pr persistedResult
	if err := json.Unmarshal(data, &pr); err != nil {
		return Result{}, fmt.Errorf("core: decode result: %w", err)
	}
	if pr.V != persistVersion {
		return Result{}, fmt.Errorf("core: persisted result version %d, want %d", pr.V, persistVersion)
	}
	res := Result{
		VectorsMined: pr.VectorsMined,
		GroupsMined:  pr.GroupsMined,
		GroupsPruned: pr.GroupsPruned,
		GroupErrors:  pr.GroupErrors,
		Truncated:    pr.Truncated,
	}
	if len(pr.Degradation) > 0 {
		if err := json.Unmarshal(pr.Degradation, &res.Degradation); err != nil {
			return Result{}, fmt.Errorf("core: decode degradation: %w", err)
		}
	}
	for _, psg := range pr.Subgraphs {
		g, err := decodeGraphText(psg.Graph)
		if err != nil {
			return Result{}, fmt.Errorf("core: decode result pattern %s: %w", psg.Canonical, err)
		}
		res.Subgraphs = append(res.Subgraphs, Subgraph{
			Graph:           g,
			Canonical:       psg.Canonical,
			SourceLabel:     graph.Label(psg.SourceLabel),
			VectorPValue:    psg.VectorPValue,
			VectorLogPValue: psg.VectorLogPValue,
			VectorSupport:   psg.VectorSupport,
			GroupSize:       psg.GroupSize,
			GroupSupport:    psg.GroupSupport,
			Support:         psg.Support,
			Frequency:       psg.Frequency,
			Unverified:      psg.Unverified,
		})
	}
	return res, nil
}

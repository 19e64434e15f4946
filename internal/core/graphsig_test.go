package core

import (
	"testing"
	"time"

	"graphsig/internal/chem"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
	"graphsig/internal/rwr"
)

// plantedDB builds a controlled database: `total` random carbon-skeleton
// molecules, the first `planted` of which carry an identical rare core.
func plantedDB(total, planted int, core *graph.Graph) []*graph.Graph {
	gen := chem.NewGenerator(99)
	db := make([]*graph.Graph, total)
	for i := range db {
		m := gen.Molecule()
		if i < planted {
			// Graft the core onto the molecule via one single bond.
			base := m.NumNodes()
			for v := 0; v < core.NumNodes(); v++ {
				m.AddNode(core.NodeLabel(v))
			}
			for _, e := range core.Edges() {
				m.MustAddEdge(base+e.From, base+e.To, e.Label)
			}
			m.MustAddEdge(0, base, chem.BondSingle)
		}
		m.ID = i
		db[i] = m
	}
	return db
}

func testConfig() Config {
	cfg := Defaults()
	cfg.CutoffRadius = 3
	cfg.MaxPvalue = 0.1
	cfg.MinSupportFloor = 3
	cfg.MaxGroupSize = 40
	return cfg
}

func TestDefaultsMatchTableIV(t *testing.T) {
	d := Defaults()
	if d.Alpha != 0.25 {
		t.Errorf("Alpha = %v; want 0.25", d.Alpha)
	}
	if d.MaxPvalue != 0.1 {
		t.Errorf("MaxPvalue = %v; want 0.1", d.MaxPvalue)
	}
	if d.MinFreqPct != 0.1 {
		t.Errorf("MinFreqPct = %v; want 0.1", d.MinFreqPct)
	}
	if d.CutoffRadius != 8 {
		t.Errorf("CutoffRadius = %v; want 8", d.CutoffRadius)
	}
	if d.FSMFreqPct != 80 {
		t.Errorf("FSMFreqPct = %v; want 80", d.FSMFreqPct)
	}
	if d.TopAtoms != 5 || d.Miner != MinerFSG {
		t.Errorf("TopAtoms=%d Miner=%d", d.TopAtoms, d.Miner)
	}
}

func TestMineRecoversPlantedCore(t *testing.T) {
	core := chem.SbCore()
	db := plantedDB(60, 9, core)
	res := Mine(db, testConfig())
	if len(res.Subgraphs) == 0 {
		t.Fatal("no significant subgraphs mined")
	}
	// Some mined subgraph must overlap the planted core substantially:
	// either it embeds in the core or the core embeds in it.
	found := false
	for _, sg := range res.Subgraphs {
		if sg.Graph.NumEdges() >= 3 &&
			(isomorph.SubgraphIsomorphic(sg.Graph, core) || isomorph.SubgraphIsomorphic(core, sg.Graph)) {
			found = true
			// The verified support must cover the planted graphs.
			if sg.Support < 5 {
				t.Errorf("core pattern support = %d; want >= 5", sg.Support)
			}
			break
		}
	}
	if !found {
		for _, sg := range res.Subgraphs {
			t.Logf("mined: %s (vecP=%g sup=%d)", sg.Graph, sg.VectorPValue, sg.Support)
		}
		t.Error("no mined subgraph overlaps the planted core")
	}
}

func TestMineVerifiedSupportMatchesIsomorphism(t *testing.T) {
	core := chem.QuinoneCore()
	db := plantedDB(40, 8, core)
	res := Mine(db, testConfig())
	for _, sg := range res.Subgraphs {
		want := isomorph.Support(sg.Graph, db)
		if sg.Support != want {
			t.Errorf("pattern %s: Support=%d; isomorphism says %d", sg.Graph, sg.Support, want)
		}
		if sg.Frequency != float64(want)/float64(len(db)) {
			t.Errorf("pattern %s: Frequency=%f", sg.Graph, sg.Frequency)
		}
	}
}

func TestMineDeterministic(t *testing.T) {
	core := chem.ThiopheneCore()
	db := plantedDB(40, 8, core)
	cfg := testConfig()
	a := Mine(db, cfg)
	b := Mine(db, cfg)
	if len(a.Subgraphs) != len(b.Subgraphs) {
		t.Fatalf("runs differ: %d vs %d subgraphs", len(a.Subgraphs), len(b.Subgraphs))
	}
	for i := range a.Subgraphs {
		if a.Subgraphs[i].Canonical != b.Subgraphs[i].Canonical {
			t.Fatalf("subgraph %d differs", i)
		}
	}
}

func TestMineEmptyDatabase(t *testing.T) {
	res := Mine(nil, testConfig())
	if len(res.Subgraphs) != 0 || res.Truncated {
		t.Errorf("unexpected result: %+v", res)
	}
}

func TestMineDeadline(t *testing.T) {
	core := chem.SbCore()
	db := plantedDB(60, 9, core)
	cfg := testConfig()
	cfg.Deadline = time.Now().Add(-time.Second)
	res := Mine(db, cfg)
	if !res.Truncated {
		t.Error("expected truncation")
	}
}

func TestMineNoDuplicateCanonicals(t *testing.T) {
	core := chem.NitroPhenylCore()
	db := plantedDB(50, 10, core)
	res := Mine(db, testConfig())
	seen := map[string]bool{}
	for _, sg := range res.Subgraphs {
		if seen[sg.Canonical] {
			t.Errorf("duplicate pattern %s", sg.Graph)
		}
		seen[sg.Canonical] = true
	}
}

func TestMineOrderedBySignificance(t *testing.T) {
	core := chem.SbCore()
	db := plantedDB(60, 9, core)
	res := Mine(db, testConfig())
	for i := 1; i < len(res.Subgraphs); i++ {
		if res.Subgraphs[i-1].VectorLogPValue > res.Subgraphs[i].VectorLogPValue {
			t.Fatal("subgraphs not ordered by significance")
		}
	}
}

func TestMineProfileCoversPhases(t *testing.T) {
	core := chem.SbCore()
	db := plantedDB(40, 8, core)
	res := Mine(db, testConfig())
	p := res.Profile
	if p.RWR <= 0 || p.FeatureAnalysis <= 0 {
		t.Errorf("profile phases empty: %+v", p)
	}
}

func TestMinerGSpanAgreesWithFSG(t *testing.T) {
	core := chem.QuinoneCore()
	db := plantedDB(40, 8, core)
	cfgFSG := testConfig()
	cfgG := testConfig()
	cfgG.Miner = MinerGSpan
	a := Mine(db, cfgFSG)
	b := Mine(db, cfgG)
	keys := func(r Result) map[string]bool {
		m := map[string]bool{}
		for _, sg := range r.Subgraphs {
			m[sg.Canonical] = true
		}
		return m
	}
	ka, kb := keys(a), keys(b)
	if len(ka) != len(kb) {
		t.Fatalf("miners disagree: fsg %d patterns, gspan %d", len(ka), len(kb))
	}
	for k := range ka {
		if !kb[k] {
			t.Errorf("pattern %q missing from gspan run", k)
		}
	}
}

func TestEvaluateSubgraphRareVsFrequent(t *testing.T) {
	core := chem.SbCore()
	db := plantedDB(80, 8, core)
	cfg := testConfig()
	fsSet := BuildFeatureSet(db, cfg)
	vectors := rwr.DatabaseVectors(db, fsSet, rwr.Config{Alpha: cfg.Alpha, Bins: cfg.Bins})

	rare := EvaluateSubgraph(db, vectors, core, cfg)
	benzene := EvaluateSubgraph(db, vectors, chem.Benzene(), cfg)

	if rare.Support != 8 {
		t.Errorf("core support = %d; want 8", rare.Support)
	}
	if benzene.Frequency < 0.4 {
		t.Errorf("benzene frequency = %f; want ubiquitous", benzene.Frequency)
	}
	// The rare planted core must be far more significant than benzene
	// (Fig 16's headline: benzene at ~70%% frequency is non-significant).
	if !(rare.LogPValue < benzene.LogPValue) {
		t.Errorf("rare logP=%f benzene logP=%f; want rare << benzene", rare.LogPValue, benzene.LogPValue)
	}
}

func TestEvaluateSubgraphAbsentPattern(t *testing.T) {
	db := plantedDB(20, 0, chem.SbCore())
	cfg := testConfig()
	fsSet := BuildFeatureSet(db, cfg)
	vectors := rwr.DatabaseVectors(db, fsSet, rwr.Config{Alpha: cfg.Alpha, Bins: cfg.Bins})
	stats := EvaluateSubgraph(db, vectors, chem.BiCore(), cfg)
	if stats.Support != 0 || stats.PValue != 1 {
		t.Errorf("absent pattern stats = %+v; want support 0, p-value 1", stats)
	}
}

func TestMineDegenerateInputs(t *testing.T) {
	cfg := testConfig()
	// Single-node graphs: no edges anywhere, nothing to mine, no panic.
	single := graph.New(1, 0)
	single.AddNode(chem.Atom("C"))
	db := []*graph.Graph{single, single.Clone(), single.Clone()}
	res := Mine(db, cfg)
	if len(res.Subgraphs) != 0 {
		t.Errorf("mined %d subgraphs from edgeless graphs", len(res.Subgraphs))
	}

	// Graphs with isolated nodes mixed in.
	g := chem.NewGenerator(1).Molecule()
	g.AddNode(chem.Atom("U")) // isolated exotic atom
	res = Mine([]*graph.Graph{g, g.Clone(), g.Clone(), g.Clone()}, cfg)
	for _, sg := range res.Subgraphs {
		if !sg.Graph.IsConnected() {
			t.Errorf("disconnected pattern mined: %s", sg.Graph)
		}
	}
}

func TestMineWindowCountsVectorizer(t *testing.T) {
	core := chem.SbCore()
	db := plantedDB(60, 9, core)
	cfg := testConfig()
	cfg.Vectorizer = VectorizerWindowCounts
	res := Mine(db, cfg)
	// The ablation vectorizer must still produce a well-formed result.
	for _, sg := range res.Subgraphs {
		if sg.Support != isomorph.Support(sg.Graph, db) {
			t.Errorf("support mismatch under window counts")
		}
	}
}

func TestSignificantVectorsExactSupportRegions(t *testing.T) {
	core := chem.BiCore()
	db := plantedDB(50, 8, core)
	cfg := testConfig()
	groups, fs, _ := SignificantVectors(db, cfg)
	if len(groups) == 0 {
		t.Fatal("no vector groups")
	}
	if fs == nil || fs.Len() == 0 {
		t.Fatal("no feature set")
	}
	for _, grp := range groups {
		if len(grp.Nodes) != grp.Sig.Support {
			t.Fatalf("group nodes %d != support %d", len(grp.Nodes), grp.Sig.Support)
		}
		for _, nv := range grp.Nodes {
			if nv.Label != grp.Label {
				t.Fatal("region label mismatch")
			}
			if !grp.Sig.Vec.SubVectorOf(nv.Vec) {
				t.Fatal("significant vector not a sub-vector of its region")
			}
		}
	}
}

func TestMineTopKMode(t *testing.T) {
	core := chem.SbCore()
	db := plantedDB(60, 9, core)
	cfg := testConfig()
	cfg.TopKPerLabel = 5
	cfg.MaxPvalue = 1e-300 // would kill everything in threshold mode
	res := Mine(db, cfg)
	if len(res.Subgraphs) == 0 {
		t.Fatal("top-k mode mined nothing despite impossible threshold")
	}
	// The planted core must still surface.
	found := false
	for _, sg := range res.Subgraphs {
		if sg.Graph.NumEdges() >= 3 &&
			(isomorph.SubgraphIsomorphic(sg.Graph, core) || isomorph.SubgraphIsomorphic(core, sg.Graph)) {
			found = true
		}
	}
	if !found {
		t.Error("planted core not recovered in top-k mode")
	}
}

// TestUniformRegionsYieldNothingSignificant checks the statistical
// soundness of the model at its fixed point: when every region vector in
// a label group is identical, the floor's per-feature priors are all 1,
// the expected support equals the database size, and nothing deviates
// from expectation — the answer set is empty. (Identical *multi-region*
// graphs, by contrast, are legitimately significant: their features
// co-occur perfectly, which the independence model correctly flags as
// deviation; the paper's model behaves the same way.)
func TestUniformRegionsYieldNothingSignificant(t *testing.T) {
	db := make([]*graph.Graph, 30)
	for i := range db {
		g := graph.New(2, 1)
		g.AddNode(chem.Atom("C"))
		g.AddNode(chem.Atom("C"))
		g.MustAddEdge(0, 1, chem.BondSingle)
		g.ID = i
		db[i] = g
	}
	cfg := testConfig()
	res := Mine(db, cfg)
	if len(res.Subgraphs) != 0 {
		for _, sg := range res.Subgraphs {
			t.Logf("unexpected: %s p=%g", sg.Graph, sg.VectorPValue)
		}
		t.Errorf("uniform regions produced %d 'significant' subgraphs", len(res.Subgraphs))
	}
}

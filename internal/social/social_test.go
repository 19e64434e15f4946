package social

import (
	"testing"

	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
)

func TestGeneratorDeterministic(t *testing.T) {
	a := NewGenerator(1).Network()
	b := NewGenerator(1).Network()
	if a.String() != b.String() {
		t.Error("same seed differs")
	}
}

func TestNetworkShape(t *testing.T) {
	g := NewGenerator(2)
	for i := 0; i < 50; i++ {
		net := g.Network()
		if net.NumNodes() < 8 || net.NumNodes() > 17 {
			t.Fatalf("size %d out of range", net.NumNodes())
		}
		if !net.IsConnected() {
			t.Fatal("network disconnected")
		}
		for _, l := range net.Labels() {
			if l < RoleDev || l > RoleSec {
				t.Fatal("unknown role")
			}
		}
	}
}

func TestDatabasePlantsPattern(t *testing.T) {
	g := NewGenerator(3)
	db := g.Database(40, 6)
	tri := IncidentTriangle()
	for i, net := range db {
		has := isomorph.SubgraphIsomorphic(tri, net)
		if i < 6 && !has {
			t.Errorf("network %d missing planted triangle", i)
		}
	}
	// The triangle must stay rare overall.
	sup := isomorph.Support(tri, db)
	if sup < 6 || sup > 12 {
		t.Errorf("triangle support = %d of 40; want rare but present", sup)
	}
}

func TestFeatureSetSelection(t *testing.T) {
	db := NewGenerator(4).Database(60, 5)
	fs := FeatureSet(db, 5, 1.0, 0.3)
	if fs.Len() < 6 { // 5 edge types (some may dedup) + 4 roles, at least
		t.Fatalf("feature set too small: %d (%v)", fs.Len(), fs.Names())
	}
	if _, ok := fs.AtomFeature(RoleSec); !ok {
		t.Error("sec role feature missing")
	}
}

func TestGraphSigRecoversIncidentTriangle(t *testing.T) {
	db := NewGenerator(5).Database(250, 10)
	cfg := core.Defaults()
	cfg.FeatureSet = FeatureSet(db, 6, 1.0, 0.3)
	cfg.CutoffRadius = 2
	cfg.MinSupportFloor = 4
	res := core.Mine(db, cfg)
	if len(res.Subgraphs) == 0 {
		t.Fatal("nothing mined")
	}
	tri := IncidentTriangle()
	found := false
	for _, sg := range res.Subgraphs {
		if isomorph.SubgraphIsomorphic(tri, sg.Graph) {
			found = true
			break
		}
	}
	if !found {
		for i, sg := range res.Subgraphs {
			if i < 5 {
				t.Logf("mined: %s p=%g", sg.Graph, sg.VectorPValue)
			}
		}
		t.Error("incident triangle not among significant subgraphs")
	}
}

func TestEdgeName(t *testing.T) {
	if EdgeName(EdgeOncall) != "oncall" || EdgeName(EdgeReview) != "review" {
		t.Error("edge names wrong")
	}
}

func TestImplantKeepsConnectivity(t *testing.T) {
	g := NewGenerator(6)
	net := g.Network()
	g.Implant(net)
	if !net.IsConnected() {
		t.Error("implant disconnected the network")
	}
	_ = graph.NoLabel
}

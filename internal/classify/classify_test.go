package classify

import (
	"math"
	"testing"

	"graphsig/internal/chem"
	"graphsig/internal/core"
	"graphsig/internal/feature"
	"graphsig/internal/graph"
	"graphsig/internal/metrics"
)

// plantedClasses builds positives carrying a core and negatives without.
func plantedClasses(core *graph.Graph, seed int64, nPos, nNeg int) (pos, neg []*graph.Graph) {
	gen := chem.NewGenerator(seed)
	for i := 0; i < nPos; i++ {
		m := gen.Molecule()
		base := m.NumNodes()
		for v := 0; v < core.NumNodes(); v++ {
			m.AddNode(core.NodeLabel(v))
		}
		for _, e := range core.Edges() {
			m.MustAddEdge(base+e.From, base+e.To, e.Label)
		}
		m.MustAddEdge(0, base, chem.BondSingle)
		pos = append(pos, m)
	}
	for i := 0; i < nNeg; i++ {
		neg = append(neg, gen.Molecule())
	}
	return pos, neg
}

func TestMinDist(t *testing.T) {
	// Paper's classifier example (Tables I and III): for v1 = [1 0 0 2],
	// N1-N3 and P1 are not sub-vectors; P2 = [1 0 0 0] and P3 = [0 0 0 1]
	// are both at distance 2.
	v1 := feature.Vector{1, 0, 0, 2}
	negs := []feature.Vector{{0, 0, 1, 1}, {0, 1, 0, 0}, {1, 1, 0, 1}}
	poss := []feature.Vector{{2, 0, 1, 3}, {1, 0, 0, 0}, {0, 0, 0, 1}}
	if d := MinDist(v1, negs); !math.IsInf(d, 1) {
		t.Errorf("negDist = %f; want +Inf", d)
	}
	if d := MinDist(v1, poss); d != 2 {
		t.Errorf("posDist = %f; want 2", d)
	}
}

func TestMinDistEmptySet(t *testing.T) {
	if d := MinDist(feature.Vector{1}, nil); !math.IsInf(d, 1) {
		t.Errorf("MinDist(empty) = %f; want +Inf", d)
	}
}

func testOptions() GraphSigOptions {
	opt := DefaultGraphSigOptions()
	opt.Core.CutoffRadius = 3
	opt.Core.MinSupportFloor = 3
	return opt
}

func TestGraphSigClassifierSeparatesPlantedClasses(t *testing.T) {
	coreGraph := chem.SbCore()
	trainPos, trainNeg := plantedClasses(coreGraph, 31, 25, 25)
	testPos, testNeg := plantedClasses(coreGraph, 32, 15, 15)

	c := TrainGraphSig(trainPos, trainNeg, testOptions())
	if len(c.pos) == 0 {
		t.Fatal("no positive significant vectors mined")
	}

	var scores []float64
	var labels []bool
	for _, g := range testPos {
		scores = append(scores, c.Score(g))
		labels = append(labels, true)
	}
	for _, g := range testNeg {
		scores = append(scores, c.Score(g))
		labels = append(labels, false)
	}
	auc := metrics.AUC(scores, labels)
	if auc < 0.8 {
		t.Errorf("GraphSig classifier AUC = %f; want >= 0.8 on planted classes", auc)
	}
}

func TestGraphSigClassifierDeterministic(t *testing.T) {
	coreGraph := chem.QuinoneCore()
	pos, neg := plantedClasses(coreGraph, 33, 15, 15)
	a := TrainGraphSig(pos, neg, testOptions())
	b := TrainGraphSig(pos, neg, testOptions())
	q := pos[0]
	if a.Score(q) != b.Score(q) {
		t.Error("classifier not deterministic")
	}
}

func TestLEAPClassifierSeparates(t *testing.T) {
	coreGraph := chem.SbCore()
	trainPos, trainNeg := plantedClasses(coreGraph, 34, 20, 20)
	testPos, testNeg := plantedClasses(coreGraph, 35, 10, 10)
	c := TrainLEAP(trainPos, trainNeg, LEAPOptions{})
	if len(c.Patterns) == 0 {
		t.Fatal("no patterns mined")
	}
	var scores []float64
	var labels []bool
	for _, g := range testPos {
		scores = append(scores, c.Score(g))
		labels = append(labels, true)
	}
	for _, g := range testNeg {
		scores = append(scores, c.Score(g))
		labels = append(labels, false)
	}
	if auc := metrics.AUC(scores, labels); auc < 0.8 {
		t.Errorf("LEAP AUC = %f; want >= 0.8", auc)
	}
}

func TestOAClassifierSeparates(t *testing.T) {
	coreGraph := chem.PhosphoniumCore()
	trainPos, trainNeg := plantedClasses(coreGraph, 36, 12, 12)
	testPos, testNeg := plantedClasses(coreGraph, 37, 6, 6)
	c := TrainOA(trainPos, trainNeg, OAOptions{})
	var scores []float64
	var labels []bool
	for _, g := range testPos {
		scores = append(scores, c.Score(g))
		labels = append(labels, true)
	}
	for _, g := range testNeg {
		scores = append(scores, c.Score(g))
		labels = append(labels, false)
	}
	if auc := metrics.AUC(scores, labels); auc < 0.65 {
		t.Errorf("OA AUC = %f; want >= 0.65", auc)
	}
}

func TestScorerInterfaceSatisfied(t *testing.T) {
	var _ Scorer = (*GraphSigClassifier)(nil)
	var _ Scorer = (*LEAPClassifier)(nil)
	var _ Scorer = (*OAClassifier)(nil)
}

func TestTrainGraphSigKDefaulting(t *testing.T) {
	coreGraph := chem.QuinoneCore()
	pos, neg := plantedClasses(coreGraph, 39, 8, 8)
	opt := GraphSigOptions{Core: core.Defaults()} // K, Delta zero
	opt.Core.CutoffRadius = 3
	c := TrainGraphSig(pos, neg, opt)
	if c.opt.K != 9 || c.opt.Delta != 1 {
		t.Errorf("defaults not applied: K=%d Delta=%f", c.opt.K, c.opt.Delta)
	}
}

func TestGraphSigClassifierEmptyTraining(t *testing.T) {
	// No training graphs at all: every score must be 0 (no vote).
	c := TrainGraphSig(nil, nil, testOptions())
	g := chem.NewGenerator(40).Molecule()
	if got := c.Score(g); got != 0 {
		t.Errorf("score = %f; want 0 with empty training", got)
	}
}

func TestLEAPClassifierNoPatterns(t *testing.T) {
	// Positives with nothing in common at the required frequency.
	gen := chem.NewGenerator(41)
	pos := []*graph.Graph{gen.Molecule()}
	neg := []*graph.Graph{gen.Molecule()}
	c := TrainLEAP(pos, neg, LEAPOptions{})
	// Whatever patterns exist, scoring must not panic.
	_ = c.Score(gen.Molecule())
}

func TestCrossValidate(t *testing.T) {
	coreGraph := chem.SbCore()
	pos, neg := plantedClasses(coreGraph, 42, 20, 20)
	graphs, labels := BalancedSample(pos, neg, 7)
	if len(graphs) != 40 {
		t.Fatalf("balanced sample size %d", len(graphs))
	}
	res := CrossValidate(graphs, labels, 4, 7, func(p, n []*graph.Graph) Scorer {
		return TrainGraphSig(p, n, testOptions())
	})
	if len(res.AUCs) != 4 {
		t.Fatalf("got %d folds", len(res.AUCs))
	}
	if res.Mean < 0.7 {
		t.Errorf("mean AUC = %.2f on planted classes", res.Mean)
	}
	if res.Total <= 0 {
		t.Error("no time recorded")
	}
}

func TestBalancedSampleSubsamplesNegatives(t *testing.T) {
	coreGraph := chem.QuinoneCore()
	pos, neg := plantedClasses(coreGraph, 43, 5, 30)
	graphs, labels := BalancedSample(pos, neg, 3)
	if len(graphs) != 10 {
		t.Fatalf("size = %d; want 10", len(graphs))
	}
	npos := 0
	for _, l := range labels {
		if l {
			npos++
		}
	}
	if npos != 5 {
		t.Errorf("positives = %d; want 5", npos)
	}
	// Deterministic.
	g2, _ := BalancedSample(pos, neg, 3)
	for i := range graphs {
		if graphs[i] != g2[i] {
			t.Fatal("not deterministic")
		}
	}
}

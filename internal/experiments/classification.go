package experiments

import (
	"math/rand"
	"time"

	"graphsig/internal/chem"
	"graphsig/internal/classify"
	"graphsig/internal/graph"
	"graphsig/internal/leap"
	"graphsig/internal/metrics"
	"graphsig/internal/svm"
)

// Table6Row is one dataset's Table VI / Fig 17 outcome: mean AUC ± std
// over the folds and the total runtime per classifier. OA3X is OA
// trained on the full fold training set (the paper's OA(3X)); OA uses a
// third of it (the paper's downsampled OA).
type Table6Row struct {
	Dataset string

	OAAUC, LeapAUC, GraphSigAUC float64
	OAStd, LeapStd, GraphSigStd float64

	OATime, OA3XTime, LeapTime, GraphSigTime time.Duration
}

// Table6 reproduces the AUC comparison (Table VI) and the classifier
// runtimes (Fig 17) in one pass of 5-fold stratified cross validation
// over a balanced sample (all actives plus an equal number of
// inactives) of each cancer screen.
//
// Adaptation note (EXPERIMENTS.md): the paper samples 30% of actives for
// the balanced training set and downsamples OA to 10% for tractability —
// a 3:1 training-size ratio between OA(3X) and OA. Here the fold training
// set plays the 30% role and OA trains on a third of it, preserving the
// ratio at laptop scale.
func Table6(cfg Config) []Table6Row {
	cfg.fill()
	cfg.printf("Table VI / Fig 17 — classification (5-fold CV, balanced sets, n=%d per screen)\n", cfg.ClassifyN)
	cfg.printf("%-10s %-14s %-14s %-14s %-10s %-10s %-10s %-10s\n",
		"dataset", "OA", "LEAP", "GraphSig", "tOA", "tOA3X", "tLEAP", "tGSig")
	var rows []Table6Row
	for _, spec := range chem.CancerSpecs() {
		if !cfg.wantDataset(spec.Name) {
			continue
		}
		rows = append(rows, classifyDataset(cfg, spec))
		r := rows[len(rows)-1]
		cfg.printf("%-10s %.2f±%-8.2f %.2f±%-8.2f %.2f±%-8.2f %-10s %-10s %-10s %-10s\n",
			r.Dataset, r.OAAUC, r.OAStd, r.LeapAUC, r.LeapStd, r.GraphSigAUC, r.GraphSigStd,
			r.OATime.Round(time.Millisecond), r.OA3XTime.Round(time.Millisecond),
			r.LeapTime.Round(time.Millisecond), r.GraphSigTime.Round(time.Millisecond))
	}
	if len(rows) > 1 {
		var oa, lp, gs []float64
		for _, r := range rows {
			oa = append(oa, r.OAAUC)
			lp = append(lp, r.LeapAUC)
			gs = append(gs, r.GraphSigAUC)
		}
		cfg.printf("%-10s %.3f          %.3f          %.3f\n", "average",
			metrics.Mean(oa), metrics.Mean(lp), metrics.Mean(gs))
	}
	CSVTable6(cfg, rows)
	return rows
}

func classifyDataset(cfg Config, spec chem.DatasetSpec) Table6Row {
	d := chem.GenerateN(spec, cfg.ClassifyN)
	pos := d.Actives()
	negAll := d.Inactives()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(spec.PaperSize)))
	rng.Shuffle(len(negAll), func(i, j int) { negAll[i], negAll[j] = negAll[j], negAll[i] })
	neg := negAll
	if len(neg) > len(pos) {
		neg = neg[:len(pos)]
	}
	balanced := append(append([]*graph.Graph{}, pos...), neg...)
	labels := make([]bool, len(balanced))
	for i := range pos {
		labels[i] = true
	}

	folds := metrics.StratifiedKFold(labels, 5, cfg.Seed)
	row := Table6Row{Dataset: spec.Name}
	var oaAUC, leapAUC, gsAUC []float64
	for _, fold := range folds {
		trainPos, trainNeg := splitClasses(balanced, labels, fold.Train)
		testG, testL := subset(balanced, labels, fold.Test)

		// GraphSig classifier.
		t0 := time.Now()
		gsOpt := classify.DefaultGraphSigOptions()
		gsOpt.Core.CutoffRadius = 3
		gsModel := classify.TrainGraphSig(trainPos, trainNeg, gsOpt)
		gsScores := scoreAll(gsModel, testG)
		row.GraphSigTime += time.Since(t0)
		gsAUC = append(gsAUC, metrics.AUC(gsScores, testL))

		// LEAP-style classifier.
		t1 := time.Now()
		leapModel := classify.TrainLEAP(trainPos, trainNeg, classify.LEAPOptions{
			Mine: leap.Options{MinPosFreq: 0.3, TopK: 20, MaxEdges: 8, Ctl: cfg.baselineCtl()},
			SVM:  svm.LinearOptions{Seed: cfg.Seed},
		})
		leapScores := scoreAll(leapModel, testG)
		row.LeapTime += time.Since(t1)
		leapAUC = append(leapAUC, metrics.AUC(leapScores, testL))

		// OA kernel classifier, trained on a third of the fold (the
		// paper's downsampled OA)...
		t2 := time.Now()
		oaPos := trainPos[:max(1, len(trainPos)/3)]
		oaNeg := trainNeg[:max(1, len(trainNeg)/3)]
		oaModel := classify.TrainOA(oaPos, oaNeg, classify.OAOptions{SVM: svm.KernelOptions{Seed: cfg.Seed}})
		oaScores := scoreAll(oaModel, testG)
		row.OATime += time.Since(t2)
		oaAUC = append(oaAUC, metrics.AUC(oaScores, testL))

		// ...and OA(3X) on the full fold, timing only (Fig 17 shows it
		// cannot scale; the paper likewise reports a single fold).
		if row.OA3XTime == 0 {
			t3 := time.Now()
			oa3x := classify.TrainOA(trainPos, trainNeg, classify.OAOptions{SVM: svm.KernelOptions{Seed: cfg.Seed}})
			_ = scoreAll(oa3x, testG)
			row.OA3XTime = 5 * time.Since(t3) // extrapolated to 5 folds
		}
	}
	row.OAAUC, row.OAStd = metrics.Mean(oaAUC), metrics.StdDev(oaAUC)
	row.LeapAUC, row.LeapStd = metrics.Mean(leapAUC), metrics.StdDev(leapAUC)
	row.GraphSigAUC, row.GraphSigStd = metrics.Mean(gsAUC), metrics.StdDev(gsAUC)
	return row
}

func splitClasses(graphs []*graph.Graph, labels []bool, idxs []int) (pos, neg []*graph.Graph) {
	for _, i := range idxs {
		if labels[i] {
			pos = append(pos, graphs[i])
		} else {
			neg = append(neg, graphs[i])
		}
	}
	return pos, neg
}

func subset(graphs []*graph.Graph, labels []bool, idxs []int) ([]*graph.Graph, []bool) {
	var g []*graph.Graph
	var l []bool
	for _, i := range idxs {
		g = append(g, graphs[i])
		l = append(l, labels[i])
	}
	return g, l
}

func scoreAll(m classify.Scorer, graphs []*graph.Graph) []float64 {
	out := make([]float64, len(graphs))
	for i, g := range graphs {
		out[i] = m.Score(g)
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

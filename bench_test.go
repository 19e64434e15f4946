// Benchmarks: one per paper table/figure (see DESIGN.md §2 and
// EXPERIMENTS.md) plus the design-choice ablations. Workloads are small
// fixed slices of the synthetic screens so that -bench=. completes in
// minutes; cmd/experiments runs the full paper-style sweeps.
package graphsig

import (
	"fmt"
	"testing"
	"time"

	"graphsig/internal/chem"
	"graphsig/internal/classify"
	"graphsig/internal/core"
	"graphsig/internal/experiments"
	"graphsig/internal/feature"
	"graphsig/internal/fsg"
	"graphsig/internal/fvmine"
	"graphsig/internal/gindex"
	"graphsig/internal/gspan"
	"graphsig/internal/isomorph"
	"graphsig/internal/kernel"
	"graphsig/internal/leap"
	"graphsig/internal/obs"
	"graphsig/internal/rwr"
	"graphsig/internal/sigmodel"
	"graphsig/internal/svm"
)

// benchDB caches a generated screen across benchmarks.
var benchDBCache = map[int][]*Graph{}

func benchDB(n int) []*Graph {
	if db, ok := benchDBCache[n]; ok {
		return db
	}
	spec := chem.AIDSSpec()
	db := chem.GenerateN(spec, n).Graphs
	benchDBCache[n] = db
	return db
}

func benchMiningConfig() core.Config {
	cfg := core.Defaults()
	cfg.CutoffRadius = 3
	cfg.SkipVerify = true
	return cfg
}

// BenchmarkFig2 regenerates the motivating baseline-runtime figure: one
// sub-benchmark per (miner, frequency threshold) point.
func BenchmarkFig2(b *testing.B) {
	db := benchDB(100)
	for _, freq := range []float64{10, 8, 6} {
		minSup := gspan.FromPercent(freq, len(db))
		b.Run(fmt.Sprintf("gSpan/freq=%g%%", freq), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gspan.Mine(db, gspan.Options{MinSupport: minSup})
			}
		})
		b.Run(fmt.Sprintf("FSG/freq=%g%%", freq), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fsg.Mine(db, fsg.Options{MinSupport: minSup})
			}
		})
	}
}

// BenchmarkFig4_AtomCoverage regenerates the cumulative atom profile.
func BenchmarkFig4_AtomCoverage(b *testing.B) {
	db := benchDB(300)
	alpha := chem.Alphabet()
	for i := 0; i < b.N; i++ {
		profile := feature.AtomProfile(db, alpha)
		if profile[4].CumulativePct < 97 {
			b.Fatalf("top-5 coverage %.1f", profile[4].CumulativePct)
		}
	}
}

// BenchmarkFig9_GraphSig measures GraphSig across the frequency sweep of
// Fig 9 — including 0.1%, where the baselines cannot run.
func BenchmarkFig9_GraphSig(b *testing.B) {
	db := benchDB(100)
	for _, freq := range []float64{0.1, 1, 10} {
		b.Run(fmt.Sprintf("freq=%g%%", freq), func(b *testing.B) {
			cfg := benchMiningConfig()
			cfg.MinFreqPct = freq
			for i := 0; i < b.N; i++ {
				core.Mine(db, cfg)
			}
		})
	}
}

// BenchmarkFig10_Profile runs the full pipeline on one cancer screen and
// reports the per-phase split as custom metrics. The split is read from
// Result.Profile, which the pipeline fills from its stage spans — the
// same spans /metrics serves — and folds the phases as Fig 10 does.
func BenchmarkFig10_Profile(b *testing.B) {
	spec := chem.CancerSpecs()[1] // MOLT-4
	db := chem.GenerateN(spec, 120).Graphs
	cfg := benchMiningConfig()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	var rwrT, featT, fsmT time.Duration
	for i := 0; i < b.N; i++ {
		p := core.Mine(db, cfg).Profile
		rwrT += p.RWR
		featT += p.FeatureAnalysis
		fsmT += p.FSM
	}
	if total := rwrT + featT + fsmT; total > 0 {
		b.ReportMetric(100*float64(rwrT)/float64(total), "rwr%")
		b.ReportMetric(100*float64(featT)/float64(total), "feature%")
		b.ReportMetric(100*float64(fsmT)/float64(total), "fsm%")
	}
	snap := reg.Snapshot()
	for _, stage := range []string{"features", "rwr", "fvmine", "group", "group-mine"} {
		started := snap.CounterValue(obs.MStageStarted, "stage", stage)
		completed := snap.CounterValue(obs.MStageCompleted, "stage", stage)
		if started == 0 || started != completed {
			b.Fatalf("stage %s: started %d completed %d", stage, started, completed)
		}
	}
}

// BenchmarkFig11_DatasetSize measures GraphSig at increasing database
// sizes (the linear-growth claim).
func BenchmarkFig11_DatasetSize(b *testing.B) {
	for _, n := range []int{100, 200, 400} {
		db := benchDB(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cfg := benchMiningConfig()
			for i := 0; i < b.N; i++ {
				core.Mine(db, cfg)
			}
		})
	}
}

// BenchmarkFig12_PvalueSweep measures GraphSig against the p-value
// threshold (the slow-growth claim).
func BenchmarkFig12_PvalueSweep(b *testing.B) {
	db := benchDB(100)
	for _, p := range []float64{0.01, 0.1, 0.5} {
		b.Run(fmt.Sprintf("maxP=%g", p), func(b *testing.B) {
			cfg := benchMiningConfig()
			cfg.MaxPvalue = p
			for i := 0; i < b.N; i++ {
				core.Mine(db, cfg)
			}
		})
	}
}

// BenchmarkFig13to15_MotifRecovery times the qualitative drug-core
// recovery pipeline on the AIDS-like actives.
func BenchmarkFig13to15_MotifRecovery(b *testing.B) {
	d := chem.GenerateN(chem.AIDSSpec(), 400)
	actives := d.Actives()
	cfg := benchMiningConfig()
	cfg.SkipVerify = false
	cfg.FeatureSet = core.BuildFeatureSet(d.Graphs, cfg)
	for i := 0; i < b.N; i++ {
		res := core.Mine(actives, cfg)
		if len(res.Subgraphs) == 0 {
			b.Fatal("nothing mined")
		}
	}
}

// BenchmarkFig16_PvalueVsFrequency times the scatter generation including
// the benzene significance evaluation.
func BenchmarkFig16_PvalueVsFrequency(b *testing.B) {
	cfg := experiments.Defaults()
	cfg.MiningN = 60
	for i := 0; i < b.N; i++ {
		res := experiments.Fig16(cfg)
		if res.Benzene.PValue <= 0.1 {
			b.Fatal("benzene significant")
		}
	}
}

// classification bench fixtures: a balanced train/test split of MOLT-4.
func benchClassification() (trainPos, trainNeg, test []*Graph, testLabels []bool) {
	d := chem.GenerateN(chem.CancerSpecs()[1], 500)
	pos := d.Actives()
	neg := d.Inactives()[:len(pos)]
	split := len(pos) * 3 / 4
	test = append(append([]*Graph{}, pos[split:]...), neg[split:]...)
	testLabels = make([]bool, len(test))
	for i := range pos[split:] {
		testLabels[i] = true
	}
	return pos[:split], neg[:split], test, testLabels
}

// BenchmarkTable6_GraphSig times the significant-pattern classifier
// (train + score), the Table VI / Fig 17 GraphSig column.
func BenchmarkTable6_GraphSig(b *testing.B) {
	trainPos, trainNeg, test, _ := benchClassification()
	opt := classify.DefaultGraphSigOptions()
	opt.Core.CutoffRadius = 3
	for i := 0; i < b.N; i++ {
		c := classify.TrainGraphSig(trainPos, trainNeg, opt)
		for _, g := range test {
			c.Score(g)
		}
	}
}

// BenchmarkTable6_LEAP times the pattern-based baseline column.
func BenchmarkTable6_LEAP(b *testing.B) {
	trainPos, trainNeg, test, _ := benchClassification()
	opt := classify.LEAPOptions{
		Mine: leap.Options{MinPosFreq: 0.3, TopK: 20, MaxEdges: 8},
		SVM:  svm.LinearOptions{Seed: 1},
	}
	for i := 0; i < b.N; i++ {
		c := classify.TrainLEAP(trainPos, trainNeg, opt)
		for _, g := range test {
			c.Score(g)
		}
	}
}

// BenchmarkTable6_OA times the kernel baseline column (the slow one —
// Fig 17's OA(3X) shape).
func BenchmarkTable6_OA(b *testing.B) {
	trainPos, trainNeg, test, _ := benchClassification()
	for i := 0; i < b.N; i++ {
		c := classify.TrainOA(trainPos, trainNeg, classify.OAOptions{SVM: svm.KernelOptions{Seed: 1}})
		for _, g := range test {
			c.Score(g)
		}
	}
}

// BenchmarkFig17_ScoreOnly times per-query scoring of the trained
// classifiers (the deployment-side cost).
func BenchmarkFig17_ScoreOnly(b *testing.B) {
	trainPos, trainNeg, test, _ := benchClassification()
	gsOpt := classify.DefaultGraphSigOptions()
	gsOpt.Core.CutoffRadius = 3
	gs := classify.TrainGraphSig(trainPos, trainNeg, gsOpt)
	lp := classify.TrainLEAP(trainPos, trainNeg, classify.LEAPOptions{
		Mine: leap.Options{MinPosFreq: 0.3, TopK: 20, MaxEdges: 8},
	})
	oa := classify.TrainOA(trainPos, trainNeg, classify.OAOptions{})
	for _, tc := range []struct {
		name string
		m    classify.Scorer
	}{{"GraphSig", gs}, {"LEAP", lp}, {"OA", oa}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tc.m.Score(test[i%len(test)])
			}
		})
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblation_RWRvsWindowCounts contrasts the RWR feature
// extraction with plain window counting (§II-C's structural-information
// argument is about quality; this measures the cost side).
func BenchmarkAblation_RWRvsWindowCounts(b *testing.B) {
	db := benchDB(100)
	fs := feature.ChemistrySet(db, chem.Alphabet(), 5)
	cfg := rwr.Defaults()
	b.Run("RWR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := db[i%len(db)]
			for v := 0; v < g.NumNodes(); v++ {
				rwr.Walk(g, v, fs, cfg)
			}
		}
	})
	b.Run("WindowCounts", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := db[i%len(db)]
			for v := 0; v < g.NumNodes(); v++ {
				rwr.WindowCounts(g, v, 4, fs, 10)
			}
		}
	})
}

// BenchmarkAblation_DiscretizationBins sweeps the RWR bin count.
func BenchmarkAblation_DiscretizationBins(b *testing.B) {
	db := benchDB(60)
	for _, bins := range []int{5, 10, 20} {
		b.Run(fmt.Sprintf("bins=%d", bins), func(b *testing.B) {
			cfg := benchMiningConfig()
			cfg.Bins = bins
			for i := 0; i < b.N; i++ {
				core.Mine(db, cfg)
			}
		})
	}
}

// BenchmarkAblation_GroupMiner contrasts FSG and gSpan as the group
// maximal-FSM step of Algorithm 2 line 13.
func BenchmarkAblation_GroupMiner(b *testing.B) {
	db := benchDB(100)
	for _, tc := range []struct {
		name  string
		miner core.MinerKind
	}{{"FSG", core.MinerFSG}, {"gSpan", core.MinerGSpan}} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := benchMiningConfig()
			cfg.Miner = tc.miner
			for i := 0; i < b.N; i++ {
				core.Mine(db, cfg)
			}
		})
	}
}

// BenchmarkAblation_FVMinePriors contrasts FVMine under global priors
// (GraphSig's model) and per-label self priors.
func BenchmarkAblation_FVMinePriors(b *testing.B) {
	db := benchDB(100)
	fs := feature.ChemistrySet(db, chem.Alphabet(), 5)
	vectors, _ := rwr.DatabaseVectors(db, fs, rwr.Defaults())
	var all []feature.Vector
	var carbon []feature.Vector
	for _, nv := range vectors {
		all = append(all, nv.Vec)
		if nv.Label == chem.Atom("C") {
			carbon = append(carbon, nv.Vec)
		}
	}
	global := sigmodel.New(all)
	b.Run("global-priors", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fvmine.Mine(carbon, fvmine.Options{MinSupport: 5, MaxPvalue: 0.1, Model: global, SkipZeroFloor: true})
		}
	})
	b.Run("self-priors", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fvmine.Mine(carbon, fvmine.Options{MinSupport: 5, MaxPvalue: 0.1, SkipZeroFloor: true})
		}
	})
}

// BenchmarkSubstrate_VF2 measures the isomorphism workhorse on molecule-
// scale inputs (support counting of benzene over a screen slice).
func BenchmarkSubstrate_VF2(b *testing.B) {
	db := benchDB(200)
	pattern := chem.Benzene()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if isomorph.Support(pattern, db) == 0 {
			b.Fatal("benzene absent")
		}
	}
}

// BenchmarkSubstrate_OAKernelPair measures one optimal-assignment kernel
// evaluation (the O(n³) unit cost behind Fig 17).
func BenchmarkSubstrate_OAKernelPair(b *testing.B) {
	db := benchDB(50)
	k := kernel.DefaultOA()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.Similarity(db[i%len(db)], db[(i+1)%len(db)])
	}
}

// BenchmarkSubstrate_RWRNode measures one random-walk feature extraction
// (the unit GraphSig pays per database node).
func BenchmarkSubstrate_RWRNode(b *testing.B) {
	db := benchDB(50)
	fs := feature.ChemistrySet(db, chem.Alphabet(), 5)
	cfg := rwr.Defaults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := db[i%len(db)]
		rwr.Walk(g, i%g.NumNodes(), fs, cfg)
	}
}

// BenchmarkSubstrate_RWRGraph measures one whole graph through the
// batched kernel: RWR from every node at once, as DatabaseVectors runs it.
func BenchmarkSubstrate_RWRGraph(b *testing.B) {
	db := benchDB(50)
	fs := feature.ChemistrySet(db, chem.Alphabet(), 5)
	cfg := rwr.Defaults()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rwr.GraphVectors(db[i%len(db)], fs, cfg)
	}
}

// BenchmarkSubstrate_FVMine measures the closed-vector search over a
// carbon vector group.
func BenchmarkSubstrate_FVMine(b *testing.B) {
	db := benchDB(100)
	fs := feature.ChemistrySet(db, chem.Alphabet(), 5)
	vectors, _ := rwr.DatabaseVectors(db, fs, rwr.Defaults())
	var all, carbon []feature.Vector
	for _, nv := range vectors {
		all = append(all, nv.Vec)
		if nv.Label == chem.Atom("C") {
			carbon = append(carbon, nv.Vec)
		}
	}
	model := sigmodel.New(all)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fvmine.Mine(carbon, fvmine.Options{MinSupport: 5, MaxPvalue: 0.1, Model: model, SkipZeroFloor: true})
	}
}

// BenchmarkSubstrate_TopK measures the threshold-free top-k variant.
func BenchmarkSubstrate_TopK(b *testing.B) {
	db := benchDB(100)
	fs := feature.ChemistrySet(db, chem.Alphabet(), 5)
	vectors, _ := rwr.DatabaseVectors(db, fs, rwr.Defaults())
	var all, carbon []feature.Vector
	for _, nv := range vectors {
		all = append(all, nv.Vec)
		if nv.Label == chem.Atom("C") {
			carbon = append(carbon, nv.Vec)
		}
	}
	model := sigmodel.New(all)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fvmine.MineTopK(carbon, 20, 5, model, nil)
	}
}

// BenchmarkSubstrate_SMILES measures the SMILES round trip.
func BenchmarkSubstrate_SMILES(b *testing.B) {
	db := benchDB(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := chem.WriteSMILES(db[i%len(db)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := chem.ParseSMILES(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGIndex_QueryVsScan contrasts indexed and scan subgraph search.
func BenchmarkGIndex_QueryVsScan(b *testing.B) {
	db := benchDB(200)
	ix := gindex.BuildFrequent(db, gindex.FrequentOptions{MinSupportPct: 15, MaxPatternEdges: 3})
	query := db[7].CutGraph(0, 2)
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.Query(query)
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gindex.ScanQuery(db, query)
		}
	})
}

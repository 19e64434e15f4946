package experiments

import (
	"math"
	"sort"

	"graphsig/internal/chem"
	"graphsig/internal/core"
	"graphsig/internal/feature"
	"graphsig/internal/graph"
	"graphsig/internal/isomorph"
	"graphsig/internal/rwr"
)

// Fig4 reproduces the cumulative atom coverage plot: the top five atoms
// of the AIDS-like screen cover ~99% of atom occurrences.
func Fig4(cfg Config) []feature.AtomFrequency {
	cfg.fill()
	db := aidsSample(cfg.MiningN, cfg.Seed)
	profile := feature.AtomProfile(db, chem.Alphabet())
	cfg.printf("Fig 4 — cumulative atom coverage (n=%d molecules)\n", len(db))
	cfg.printf("%-6s %-6s %-10s %-12s\n", "rank", "atom", "count", "cumulative%")
	for i, p := range profile {
		if i < 10 || i == len(profile)-1 {
			cfg.printf("%-6d %-6s %-10d %-12.2f\n", i+1, p.Name, p.Count, p.CumulativePct)
		}
	}
	return profile
}

// MotifRecovery is the Fig 13-15 outcome for one dataset: the top mined
// subgraphs from the active class and whether each planted drug core was
// recovered (some mined pattern overlaps it substantially).
type MotifRecovery struct {
	Dataset string
	// Mined are the significant subgraphs from the active compounds,
	// most significant first.
	Mined []core.Subgraph
	// Recovered maps each planted motif name to whether a mined pattern
	// covers at least half of its edges.
	Recovered map[string]bool
}

// motifExperiment mines the active class of one dataset and checks
// planted-core recovery. The feature set is built from the whole screen
// (as the paper's §II-B does with the full AIDS database): top-5 atoms
// must reflect the global frequency profile, so that a rare heteroatom
// in the actives stays an atom feature with a small global prior.
func motifExperiment(cfg Config, spec chem.DatasetSpec, n int) MotifRecovery {
	d := chem.GenerateN(spec, n)
	actives := d.Actives()
	gcfg := miningConfig()
	gcfg.SkipVerify = false
	gcfg.MinSupportFloor = 3
	gcfg.FeatureSet = core.BuildFeatureSet(d.Graphs, gcfg)
	res := core.Mine(actives, gcfg)

	out := MotifRecovery{Dataset: spec.Name, Mined: res.Subgraphs, Recovered: map[string]bool{}}
	for _, plan := range spec.Motifs {
		coreGraph := chem.MotifByName(plan.Motif).Build()
		for _, sg := range res.Subgraphs {
			if patternCoversCore(sg.Graph, coreGraph) {
				out.Recovered[plan.Motif] = true
				break
			}
		}
		if _, ok := out.Recovered[plan.Motif]; !ok {
			out.Recovered[plan.Motif] = false
		}
	}
	return out
}

// patternCoversCore reports whether a mined pattern recovers a planted
// core: either the core embeds in the pattern, or the pattern embeds in
// the core and spans at least half of the core's edges.
func patternCoversCore(pattern, core *graph.Graph) bool {
	if isomorph.SubgraphIsomorphic(core, pattern) {
		return true
	}
	return pattern.NumEdges()*2 >= core.NumEdges() && isomorph.SubgraphIsomorphic(pattern, core)
}

// Fig13to15 reproduces the qualitative drug-core recovery: AZT/FDT from
// the AIDS-like actives (Fig 13), the phosphonium salt from UACC-257
// (Fig 14) and the antimony/bismuth pair from MOLT-4 (Fig 15).
func Fig13to15(cfg Config) []MotifRecovery {
	cfg.fill()
	specs := []chem.DatasetSpec{chem.AIDSSpec()}
	for _, s := range chem.CancerSpecs() {
		if s.Name == "MOLT-4" || s.Name == "UACC-257" {
			specs = append(specs, s)
		}
	}
	var out []MotifRecovery
	for _, spec := range specs {
		if !cfg.wantDataset(spec.Name) {
			continue
		}
		n := cfg.MiningN * 4 // actives are ~5%, so mine from a larger pool
		rec := motifExperiment(cfg, spec, n)
		cfg.printf("Fig 13-15 — %s actives: %d significant subgraphs\n", rec.Dataset, len(rec.Mined))
		names := make([]string, 0, len(rec.Recovered))
		for name := range rec.Recovered {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			status := "MISSED"
			if rec.Recovered[name] {
				status = "recovered"
			}
			cfg.printf("  core %-14s %s\n", name, status)
		}
		for i, sg := range rec.Mined {
			if i >= 3 {
				break
			}
			cfg.printf("  top-%d: %d nodes / %d edges, vector p=%.3g, freq=%.2f%%\n",
				i+1, sg.Graph.NumNodes(), sg.Graph.NumEdges(), sg.VectorPValue, 100*sg.Frequency)
		}
		out = append(out, rec)
	}
	return out
}

// Fig16Row is one point of the p-value vs frequency scatter.
type Fig16Row struct {
	Canonical string
	Frequency float64
	PValue    float64
	LogPValue float64
}

// Fig16Result carries the scatter plus the benzene reference point.
type Fig16Result struct {
	Points []Fig16Row
	// Benzene is the evaluation of the ubiquitous benzene ring: high
	// frequency, not significant.
	Benzene core.SubgraphStats
	// BelowOnePct counts significant subgraphs with frequency < 1%.
	BelowOnePct int
}

// Fig16 reproduces the frequency/p-value relationship: significant
// subgraphs exist at all frequencies — many below 1% — while benzene
// (~70% frequency) is not significant.
func Fig16(cfg Config) Fig16Result {
	cfg.fill()
	spec := chem.AIDSSpec()
	spec.Seed = cfg.Seed
	d := chem.GenerateN(spec, cfg.MiningN*4)
	actives := d.Actives()
	gcfg := miningConfig()
	gcfg.SkipVerify = false
	gcfg.FeatureSet = core.BuildFeatureSet(d.Graphs, gcfg)
	res := core.Mine(actives, gcfg)

	var out Fig16Result
	for _, sg := range res.Subgraphs {
		// Frequency over the whole screen, as in the paper's x-axis.
		sup := isomorph.Support(sg.Graph, d.Graphs)
		freq := float64(sup) / float64(len(d.Graphs))
		out.Points = append(out.Points, Fig16Row{
			Canonical: sg.Canonical,
			Frequency: freq,
			PValue:    sg.VectorPValue,
			LogPValue: sg.VectorLogPValue,
		})
		if freq < 0.01 {
			out.BelowOnePct++
		}
	}

	fs := core.BuildFeatureSet(d.Graphs, gcfg)
	vectors, _ := rwr.DatabaseVectors(d.Graphs, fs, rwr.Config{Alpha: gcfg.Alpha, Bins: gcfg.Bins})
	out.Benzene = core.EvaluateSubgraph(d.Graphs, vectors, chem.Benzene(), gcfg)

	cfg.printf("Fig 16 — p-value vs frequency (%d significant subgraphs)\n", len(out.Points))
	cfg.printf("%-12s %-14s\n", "freq%", "p-value")
	sort.Slice(out.Points, func(i, j int) bool { return out.Points[i].Frequency < out.Points[j].Frequency })
	for _, p := range out.Points {
		cfg.printf("%-12.3f %-14.3g\n", 100*p.Frequency, math.Max(p.PValue, 1e-300))
	}
	cfg.printf("subgraphs below 1%% frequency: %d\n", out.BelowOnePct)
	cfg.printf("benzene: freq=%.1f%% p-value=%.3f (not significant at 0.1)\n",
		100*out.Benzene.Frequency, out.Benzene.PValue)
	ChartFig16(cfg, out)
	CSVFig16(cfg, out)
	return out
}

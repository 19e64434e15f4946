// Command graphsig mines statistically significant subgraphs from a
// graph database file in gSpan transaction format:
//
//	graphsig -in screen.db -maxp 0.1 -minfreq 0.1 -radius 4 -top 10
//	graphsig -store-dir store/ -shards 4 -top 10
//	graphsig store build -in screen.db -dir store/
//
// With -store-dir the corpus is mined out of a persistent segment
// store (see `graphsig store build`): segments load lazily through a
// bounded LRU and the mine scatter-gathers across -shards shards, so a
// database larger than RAM is minable with results byte-identical to
// an in-memory run. Name rendering then assumes the standard chemistry
// alphabet (datagen or SMILES-derived stores qualify).
//
// Labels in the input may be symbols (atom names) or integers. The
// output lists each significant subgraph with its describing vector's
// p-value, its verified support, and its structure.
//
// Exit status: 0 on a complete mine, 2 on usage errors, 3 when the mine
// was truncated (timeout, budget, or an isolated worker failure) — the
// printed results are then a valid but partial answer, and the
// degradation report on stderr says which stage stopped and why.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"graphsig/internal/chem"
	"graphsig/internal/core"
	"graphsig/internal/graph"
	"graphsig/internal/obs"
	"graphsig/internal/runctl"
	"graphsig/internal/shard"
	"graphsig/internal/store"
)

// exitTruncated is the exit status for a partial (degraded) mine,
// distinct from 1 (fatal error) and 2 (usage).
const exitTruncated = 3

func main() {
	log.SetFlags(0)
	log.SetPrefix("graphsig: ")

	if len(os.Args) > 1 && os.Args[1] == "store" {
		storeMain(os.Args[2:])
		return
	}

	in := flag.String("in", "", "input graph database (gSpan transaction format, or .smi SMILES file)")
	storeDir := flag.String("store-dir", "", "mine out of this persistent segment store (see `graphsig store build`) instead of -in")
	shards := flag.Int("shards", 1, "scatter-gather mining shards for -store-dir")
	maxP := flag.Float64("maxp", 0.1, "p-value threshold")
	minFreq := flag.Float64("minfreq", 0.1, "FVMine support threshold, % of per-label vectors")
	radius := flag.Int("radius", 4, "cutoff radius around region centers")
	fsmFreq := flag.Float64("fsmfreq", 80, "maximal FSM frequency threshold, %")
	alpha := flag.Float64("alpha", 0.25, "random-walk restart probability")
	top := flag.Int("top", 20, "print at most this many subgraphs (0 = all)")
	topK := flag.Int("topk", 0, "threshold-free mode: keep the k most significant vectors per label")
	dotDir := flag.String("dot", "", "write one GraphViz .dot file per printed subgraph into this directory")
	timeout := flag.Duration("timeout", 0, "abort mining after this duration (0 = none)")
	maxStates := flag.Int64("max-states", 0, "budget on FVMine search states (0 = unbounded)")
	maxSteps := flag.Int64("max-steps", 0, "budget on FSM candidate/extension steps (0 = unbounded)")
	maxVF2 := flag.Int64("max-vf2", 0, "budget on VF2 isomorphism search nodes (0 = unbounded)")
	useGSpan := flag.Bool("gspan", false, "use gSpan instead of FSG for the group mining step")
	stats := flag.Bool("stats", false, "print the per-stage metrics table to stderr at exit")
	ckptFile := flag.String("checkpoint", "", "write the resumable mining snapshot chain to this file, one part per line (atomically replaced at each new part)")
	resumeFile := flag.String("resume", "", "resume group mining from a snapshot chain written by -checkpoint (ignored unless it matches this database and configuration)")
	flag.Parse()

	if (*in == "") == (*storeDir == "") {
		flag.Usage()
		os.Exit(2)
	}
	// A nil registry makes every metric a no-op; only meter when asked.
	var reg *obs.Registry
	if *stats {
		reg = obs.NewRegistry()
	}
	var db []*graph.Graph
	var reader *store.Reader
	var alphabet *graph.Alphabet
	if *storeDir != "" {
		// Segment stores persist integer labels only; render names
		// through the standard chemistry alphabet.
		alphabet = chem.Alphabet()
		var err error
		reader, err = store.Open(*storeDir, store.Options{Metrics: reg})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("opened store %s: generation %d, %d graphs in %d segment(s)",
			*storeDir, reader.Generation(), reader.Len(), len(reader.Manifest().Segments))
	} else {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if strings.HasSuffix(*in, ".smi") {
			alphabet = chem.Alphabet()
			db, _, err = chem.ReadSMILESFile(f)
			for i, g := range db {
				g.ID = i
			}
		} else {
			alphabet = graph.NewAlphabet()
			db, err = graph.ReadDB(f, alphabet)
		}
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("loaded %d graphs from %s", len(db), *in)
	}

	cfg := core.Defaults()
	cfg.MaxPvalue = *maxP
	cfg.MinFreqPct = *minFreq
	cfg.CutoffRadius = *radius
	cfg.FSMFreqPct = *fsmFreq
	cfg.Alpha = *alpha
	cfg.Alphabet = alphabet
	cfg.TopKPerLabel = *topK
	if *useGSpan {
		cfg.Miner = core.MinerGSpan
	}
	if *timeout > 0 {
		cfg.Deadline = time.Now().Add(*timeout)
	}
	cfg.Budgets = runctl.Budgets{
		FVMineStates: *maxStates,
		MinerSteps:   *maxSteps,
		VF2Nodes:     *maxVF2,
	}
	cfg.Metrics = reg

	// A snapshot chain is one part per line. A resumed mine emits parts
	// that extend the chain it resumed from, so that chain seeds the one
	// written to -checkpoint.
	var chain [][]byte
	if *resumeFile != "" {
		buf, err := os.ReadFile(*resumeFile)
		if err != nil {
			log.Fatal(err)
		}
		parts := bytes.Split(bytes.TrimSpace(buf), []byte("\n"))
		rs, err := core.ResumeChain(parts)
		if err != nil {
			// A stale or corrupt snapshot is not fatal: the mine simply
			// starts over, exactly as core does for a key mismatch.
			log.Printf("warning: ignoring resume snapshot: %v", err)
		} else {
			cfg.Resume, chain = rs, parts
			log.Printf("resuming group mining from %s (%d groups finished)", *resumeFile, len(rs.Groups))
		}
	}
	if *ckptFile != "" {
		// With a sink installed the pipeline emits a snapshot part each
		// time CheckpointEvery groups have finished since the last one; the
		// chain lands atomically via rename
		// so a kill mid-write can never corrupt the previous good chain.
		cfg.Ctl = runctl.New(runctl.Options{
			Deadline: cfg.Deadline,
			Budgets:  cfg.Budgets,
			Metrics:  reg,
			CheckpointSink: func(payload []byte) {
				chain = append(chain, payload)
				tmp := *ckptFile + ".tmp"
				if err := os.WriteFile(tmp, append(bytes.Join(chain, []byte("\n")), '\n'), 0o644); err != nil {
					log.Printf("warning: checkpoint write: %v", err)
					return
				}
				if err := os.Rename(tmp, *ckptFile); err != nil {
					log.Printf("warning: checkpoint rename: %v", err)
				}
			},
		})
	}

	t0 := time.Now()
	var res core.Result
	if reader != nil {
		coord, err := shard.New(reader, shard.Options{
			Shards:      *shards,
			Fingerprint: reader.Fingerprint(),
			Metrics:     reg,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err = coord.Mine(cfg)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		res = core.Mine(db, cfg)
	}
	log.Printf("mined %d significant subgraphs in %s (RWR %s, feature analysis %s, FSM %s)",
		len(res.Subgraphs), time.Since(t0).Round(time.Millisecond),
		res.Profile.RWR.Round(time.Millisecond),
		res.Profile.FeatureAnalysis.Round(time.Millisecond),
		res.Profile.FSM.Round(time.Millisecond))
	if res.Truncated {
		// log prints to stderr, keeping stdout a clean pattern listing.
		log.Printf("warning: partial results: %s", res.Degradation.String())
		for _, st := range res.Degradation.Stages {
			log.Printf("  stage %s: %s", st.Stage, stageLine(st))
		}
	}
	if res.GroupErrors > 0 {
		log.Printf("warning: %d region groups failed and were skipped", res.GroupErrors)
	}

	if *dotDir != "" {
		if err := os.MkdirAll(*dotDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	for i, sg := range res.Subgraphs {
		if *top > 0 && i >= *top {
			log.Printf("... %d more (raise -top to see them)", len(res.Subgraphs)-i)
			break
		}
		support := fmt.Sprintf("support=%d (%.2f%%)", sg.Support, 100*sg.Frequency)
		if sg.Unverified {
			support = "support=unverified"
		}
		fmt.Printf("#%d  p=%.3g  %s  %d nodes / %d edges  [source %s]\n",
			i+1, sg.VectorPValue, support,
			sg.Graph.NumNodes(), sg.Graph.NumEdges(), alphabet.Name(sg.SourceLabel))
		printGraph(sg.Graph, alphabet)
		if *dotDir != "" {
			name := fmt.Sprintf("pattern%03d", i+1)
			f, err := os.Create(filepath.Join(*dotDir, name+".dot"))
			if err != nil {
				log.Fatal(err)
			}
			err = graph.WriteDOT(f, sg.Graph, name, alphabet, chem.BondName)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
		}
	}
	if *stats {
		// Stderr, like the rest of the diagnostics: stdout stays a clean
		// pattern listing.
		obs.WriteStageTable(os.Stderr, reg.Snapshot())
	}
	if res.Truncated || res.GroupErrors > 0 {
		os.Exit(exitTruncated)
	}
}

// stageLine renders one stage report for the stderr degradation listing.
func stageLine(st runctl.StageReport) string {
	s := fmt.Sprintf("%s", st.Reason)
	if st.Detail != "" {
		s += ": " + st.Detail
	}
	if st.Planned > 0 {
		s += fmt.Sprintf(" (%d/%d done)", st.Completed, st.Planned)
	} else if st.Completed > 0 {
		s += fmt.Sprintf(" (%d done)", st.Completed)
	}
	if st.Err != "" {
		s += " err=" + st.Err
	}
	return s
}

func printGraph(g *graph.Graph, alpha *graph.Alphabet) {
	// SMILES output is only meaningful when the file's labels line up
	// with the standard chemistry alphabet (true for datagen output).
	chemAlpha := chem.Alphabet()
	chemLabels := true
	for _, l := range g.Labels() {
		if chemAlpha.Name(l) != alpha.Name(l) {
			chemLabels = false
			break
		}
	}
	if chemLabels {
		if smiles, err := chem.WriteSMILES(g); err == nil {
			fmt.Printf("    SMILES: %s\n", smiles)
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Printf("    v%d %s\n", v, alpha.Name(g.NodeLabel(v)))
	}
	for _, e := range g.Edges() {
		fmt.Printf("    %d %s %d\n", e.From, chem.BondName(e.Label), e.To)
	}
}

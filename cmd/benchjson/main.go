// Command benchjson runs the Fig-10 profiling workload — a full
// GraphSig mine over a synthetic MOLT-4 slice — with the obs registry
// attached, and writes the per-stage split as machine-readable JSON
// (default BENCH_graphsig.json; `make bench-json`). It exists so CI
// and tooling can track where mining time goes per stage without
// scraping `go test -bench` text:
//
//	benchjson -n 120 -runs 5 -out BENCH_graphsig.json
//
// Each run is timed on its own, and the file records every run's
// seconds with their median and minimum. With -baseline it compares the
// fresh median per-run time against a committed baseline file and exits
// non-zero on regression beyond -max-regression (`make bench-smoke`).
// The baseline is keyed by dataset, graph count, radius, parallelism and
// verification; a run under a different key fails instead of being
// compared, so the smoke must run at the baseline's key:
//
//	benchjson -runs 5 -parallelism 1 -out - -baseline BENCH_graphsig.json
//
// The emitted stages are the same series /metrics serves, read through
// the same snapshot API, so benchmark numbers and production telemetry
// can never disagree about what was measured.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"slices"
	"time"

	"graphsig/internal/chem"
	"graphsig/internal/core"
	"graphsig/internal/obs"
)

// stageJSON is one pipeline stage's accounting across all runs.
type stageJSON struct {
	Started   int64   `json:"started"`
	Completed int64   `json:"completed"`
	Degraded  int64   `json:"degraded"`
	Units     int64   `json:"units"`
	Seconds   float64 `json:"seconds"`
	P50       float64 `json:"p50Seconds"`
	P95       float64 `json:"p95Seconds"`
}

type benchJSON struct {
	Dataset       string  `json:"dataset"`
	Graphs        int     `json:"graphs"`
	Runs          int     `json:"runs"`
	Radius        int     `json:"radius"`
	Parallelism   int     `json:"parallelism"`
	Verify        bool    `json:"verify"` // absent (false) in baselines recorded before the field, all without verify
	ElapsedSec    float64 `json:"elapsedSeconds"`
	AllocsPerRun  float64 `json:"allocsPerRun"`
	AllocMBPerRun float64 `json:"allocMBPerRun"`
	Patterns      int     `json:"patterns"`
	WindowHits    int64   `json:"windowCacheHits"`
	WindowMisses  int64   `json:"windowCacheMisses"`
	PrefilterHit  int64   `json:"prefilterRejects"`
	PrefilterMiss int64   `json:"prefilterPasses"`

	// Per-run wall times in run order, and their median and minimum.
	RunSec       []float64 `json:"runSeconds"`
	MedianRunSec float64   `json:"medianRunSeconds"`
	MinRunSec    float64   `json:"minRunSeconds"`

	// Closed-pattern mining counters: patterns suppressed at emission
	// and DFS subtrees cut by equivalent-occurrence detection.
	// FSGMinChecks counts FSG Phase-2 minimality checks, one per frequent
	// extension key that is a rightmost-path extension of its parent's
	// code. RWRIterations counts RWR power iterations, one per source per
	// iteration.
	ClosedPrunes  int64                `json:"closedPrunes"`
	EquivOccHits  int64                `json:"equivOccurrenceHits"`
	FSGMinChecks  int64                `json:"fsgMinChecks"`
	RWRIterations int64                `json:"rwrIterations"`
	Stages        map[string]stageJSON `json:"stages"`
	StageOrder    []string             `json:"stageOrder"`
	GeneratedUnix int64                `json:"generatedUnix"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")

	n := flag.Int("n", 120, "molecules in the generated MOLT-4 slice")
	runs := flag.Int("runs", 1, "full mining runs, each timed on its own")
	radius := flag.Int("radius", 3, "cutoff radius")
	parallelism := flag.Int("parallelism", 0, "Config.Parallelism (0 = GOMAXPROCS)")
	verify := flag.Bool("verify", false, "include graph-space support verification")
	out := flag.String("out", "BENCH_graphsig.json", "output file (- for stdout)")
	baseline := flag.String("baseline", "", "committed baseline JSON to compare against (empty = no comparison)")
	maxRegression := flag.Float64("max-regression", 2.0, "fail when the median run time, allocations, FSG minimality checks or RWR iterations exceed this multiple of the baseline")
	flag.Parse()
	if *runs < 1 {
		log.Fatal("-runs must be at least 1")
	}

	spec := chem.CancerSpecs()[1] // MOLT-4, the Fig-10 screen
	db := chem.GenerateN(spec, *n).Graphs

	cfg := core.Defaults()
	cfg.CutoffRadius = *radius
	cfg.SkipVerify = !*verify
	cfg.Parallelism = *parallelism
	reg := obs.NewRegistry()
	cfg.Metrics = reg

	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	t0 := time.Now()
	patterns := 0
	runSec := make([]float64, 0, *runs)
	for i := 0; i < *runs; i++ {
		t := time.Now()
		res := core.Mine(db, cfg)
		runSec = append(runSec, time.Since(t).Seconds())
		if res.Truncated {
			log.Fatalf("benchmark run truncated: %s", res.Degradation.String())
		}
		patterns = len(res.Subgraphs)
	}
	elapsed := time.Since(t0)
	sorted := slices.Clone(runSec)
	slices.Sort(sorted)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	effParallel := *parallelism
	if effParallel <= 0 {
		effParallel = runtime.GOMAXPROCS(0)
	}
	snap := reg.Snapshot()
	result := benchJSON{
		Dataset:       spec.Name,
		Graphs:        len(db),
		Runs:          *runs,
		Radius:        *radius,
		Parallelism:   effParallel,
		Verify:        *verify,
		ElapsedSec:    elapsed.Seconds(),
		RunSec:        runSec,
		MedianRunSec:  median(sorted),
		MinRunSec:     sorted[0],
		AllocsPerRun:  float64(msAfter.Mallocs-msBefore.Mallocs) / float64(*runs),
		AllocMBPerRun: float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(*runs) / (1 << 20),
		Patterns:      patterns,
		WindowHits:    snap.CounterValue(obs.MWindowCacheHits),
		WindowMisses:  snap.CounterValue(obs.MWindowCacheMisses),
		PrefilterHit:  sumSites(snap, obs.MPrefilterRejects),
		PrefilterMiss: sumSites(snap, obs.MPrefilterPasses),
		ClosedPrunes:  sumLabel(snap, obs.MClosedPrunes, "miner"),
		EquivOccHits:  sumLabel(snap, obs.MEquivOccurrences, "miner"),
		FSGMinChecks:  snap.CounterValue(obs.MFSGMinChecks, "miner", "fsg"),
		RWRIterations: snap.CounterValue(obs.MRWRIterations),
		Stages:        map[string]stageJSON{},
		StageOrder:    snap.LabelValues(obs.MStageStarted, "stage"),
		GeneratedUnix: t0.Unix(),
	}
	for _, stage := range result.StageOrder {
		h, _ := snap.HistogramValue(obs.MStageDuration, "stage", stage)
		result.Stages[stage] = stageJSON{
			Started:   snap.CounterValue(obs.MStageStarted, "stage", stage),
			Completed: snap.CounterValue(obs.MStageCompleted, "stage", stage),
			Degraded:  snap.CounterValue(obs.MStageDegraded, "stage", stage),
			Units:     snap.CounterValue(obs.MStageUnits, "stage", stage),
			Seconds:   h.Sum,
			P50:       h.Quantile(0.5),
			P95:       h.Quantile(0.95),
		}
	}

	data, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("mined %d patterns over %d graphs ×%d in %s; wrote %s",
			patterns, len(db), *runs, elapsed.Round(time.Millisecond), *out)
	}

	if *baseline != "" {
		checkRegression(*baseline, result, *maxRegression)
	}
}

// median returns the median of an ascending, nonempty sample.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// sumSites totals a labelled counter across its "site" label values
// (the verify and gindex prefilters report separately).
func sumSites(snap obs.Snapshot, name string) int64 {
	return sumLabel(snap, name, "site")
}

// sumLabel totals a counter across every value of one label.
func sumLabel(snap obs.Snapshot, name, label string) int64 {
	var total int64
	for _, v := range snap.LabelValues(name, label) {
		total += snap.CounterValue(name, label, v)
	}
	return total
}

// checkRegression exits non-zero when the fresh run's median run time,
// allocations, FSG minimality checks or RWR iterations exceed
// maxRegression × the committed baseline's, when its pattern count or
// window-cache hits or misses differ from the baseline's, or when it was
// run under a different key (workload shape, parallelism or
// verification). Per-run figures are compared so -runs need not match
// the baseline's.
func checkRegression(path string, fresh benchJSON, maxRegression float64) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("read baseline: %v", err)
	}
	var base benchJSON
	if err := json.Unmarshal(data, &base); err != nil {
		log.Fatalf("parse baseline %s: %v", path, err)
	}
	if base.Dataset != fresh.Dataset || base.Graphs != fresh.Graphs || base.Radius != fresh.Radius ||
		base.Parallelism != fresh.Parallelism || base.Verify != fresh.Verify {
		log.Fatalf("baseline %s was recorded for %s/%d graphs/radius %d/parallelism %d/verify %v, this run is %s/%d/%d/%d/%v; rerun at the baseline's key",
			path, base.Dataset, base.Graphs, base.Radius, base.Parallelism, base.Verify,
			fresh.Dataset, fresh.Graphs, fresh.Radius, fresh.Parallelism, fresh.Verify)
	}
	// Every gated figure must be in the baseline: one that lacks a field
	// would otherwise pass its check by default.
	if base.Runs < 1 || base.MedianRunSec <= 0 || base.AllocsPerRun <= 0 || base.FSGMinChecks <= 0 || base.RWRIterations <= 0 ||
		base.Patterns <= 0 || base.WindowHits <= 0 || base.WindowMisses <= 0 {
		log.Fatalf("baseline %s lacks runs, medianRunSeconds, allocsPerRun, fsgMinChecks, rwrIterations, patterns, windowCacheHits or windowCacheMisses; re-record it with make bench-json", path)
	}
	// At a fixed key the answer is deterministic: another pattern count,
	// or another number of window reads per run, means the mine computes
	// something else, whatever it costs.
	log.Printf("%d patterns, %d window-cache hits and %d misses in %d runs vs baseline %d, %d and %d in %d",
		fresh.Patterns, fresh.WindowHits, fresh.WindowMisses, fresh.Runs, base.Patterns, base.WindowHits, base.WindowMisses, base.Runs)
	if fresh.Patterns != base.Patterns || fresh.WindowHits*int64(base.Runs) != base.WindowHits*int64(fresh.Runs) ||
		fresh.WindowMisses*int64(base.Runs) != base.WindowMisses*int64(fresh.Runs) {
		log.Fatal("answer changed: the pattern count or the window-cache hits or misses per run differ from the baseline's")
	}
	// Each gate compares a per-run figure with the baseline's at the same
	// multiple: wall time, allocation churn, FSG's Phase-2 work (a rise
	// in minimality checks means candidates are being reached from more
	// than their canonical parent) and RWR's (a rise in power iterations
	// means sources stopped certifying their vectors early and ran on
	// towards the tolerance).
	freshChecks, baseChecks := float64(fresh.FSGMinChecks)/float64(fresh.Runs), float64(base.FSGMinChecks)/float64(base.Runs)
	freshIters, baseIters := float64(fresh.RWRIterations)/float64(fresh.Runs), float64(base.RWRIterations)/float64(base.Runs)
	gates := []struct {
		name        string // the regression a failure names
		fresh, base float64
		line        string // the log line up to its ratio
	}{
		{"performance", fresh.MedianRunSec, base.MedianRunSec,
			fmt.Sprintf("%.3fs/run vs baseline %.3fs/run (", fresh.MedianRunSec, base.MedianRunSec)},
		{"allocation", fresh.AllocsPerRun, base.AllocsPerRun,
			fmt.Sprintf("%.0f allocs/run vs baseline %.0f allocs/run (", fresh.AllocsPerRun, base.AllocsPerRun)},
		{"FSG minimality-check", freshChecks, baseChecks,
			fmt.Sprintf("%.0f FSG minimality checks/run vs baseline %.0f (", freshChecks, baseChecks)},
		{"RWR iteration", freshIters, baseIters,
			fmt.Sprintf("%.0f RWR iterations/run vs baseline %.0f (%.1f per source; ",
				freshIters, baseIters, float64(fresh.RWRIterations)/float64(fresh.Stages["rwr"].Units))},
	}
	for _, g := range gates {
		ratio := g.fresh / g.base
		log.Printf("%s%.2fx, limit %.2fx)", g.line, ratio, maxRegression)
		if ratio > maxRegression {
			log.Fatalf("%s regression: %.2fx exceeds the %.2fx limit", g.name, ratio, maxRegression)
		}
	}
	// Closed-pattern pruning must stay engaged: a baseline that recorded
	// prunes against a fresh run with none means the miners silently fell
	// back to sweeping the full frequent set — a regression wall time
	// alone can hide on small workloads.
	if base.ClosedPrunes > 0 {
		log.Printf("%d closed prunes vs baseline %d", fresh.ClosedPrunes, base.ClosedPrunes)
		if fresh.ClosedPrunes == 0 {
			log.Fatal("closed-pattern pruning inactive: baseline recorded prunes, fresh run has none")
		}
	}
}

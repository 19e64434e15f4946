// Command fsm runs the baseline frequent-subgraph miners (gSpan or the
// FSG-style apriori miner) over a graph database file:
//
//	fsm -in data/AIDS.db -miner gspan -freq 5
//	fsm -in data/AIDS.db -miner fsg -freq 10 -maximal
//	fsm -in data/AIDS.db -miner gspan -freq 5 -closed
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"graphsig/internal/fsg"
	"graphsig/internal/graph"
	"graphsig/internal/gspan"
	"graphsig/internal/runctl"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fsm: ")

	in := flag.String("in", "", "input graph database (gSpan transaction format; required)")
	miner := flag.String("miner", "gspan", "miner: gspan or fsg")
	freq := flag.Float64("freq", 5, "frequency threshold in percent")
	maxEdges := flag.Int("maxedges", 0, "bound pattern size in edges (0 = unbounded)")
	maximal := flag.Bool("maximal", false, "keep only maximal patterns")
	closed := flag.Bool("closed", false, "keep only closed patterns")
	timeout := flag.Duration("timeout", 0, "abort after this duration (0 = none)")
	top := flag.Int("top", 25, "print at most this many patterns (0 = all)")
	flag.Parse()

	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	alpha := graph.NewAlphabet()
	db, err := graph.ReadDB(f, alpha)
	if err != nil {
		log.Fatal(err)
	}
	minSup := gspan.FromPercent(*freq, len(db))
	log.Printf("loaded %d graphs; frequency %.2f%% = support %d", len(db), *freq, minSup)

	// One controller bounds the whole command, the maximality sweep
	// included; nil leaves it unbounded.
	var ctl *runctl.Controller
	if *timeout > 0 {
		ctl = runctl.New(runctl.Options{Deadline: time.Now().Add(*timeout)})
	}

	type row struct {
		g       *graph.Graph
		support int
	}
	var rows []row
	truncated := false
	t0 := time.Now()
	switch *miner {
	case "gspan":
		res := gspan.Mine(db, gspan.Options{MinSupport: minSup, MaxEdges: *maxEdges, Ctl: ctl, ClosedOnly: *closed})
		truncated = res.Truncated
		patterns := res.Patterns
		if *maximal {
			var err error
			patterns, err = gspan.Maximal(patterns, ctl.Checkpoint(runctl.StageGSpan))
			truncated = truncated || err != nil
		}
		for _, p := range patterns {
			rows = append(rows, row{p.Graph, p.Support})
		}
	case "fsg":
		opt := fsg.Options{MinSupport: minSup, MaxEdges: *maxEdges, Ctl: ctl, ClosedOnly: *closed}
		var res fsg.Result
		if *maximal {
			res = fsg.MaximalMine(db, opt)
		} else {
			res = fsg.Mine(db, opt)
		}
		truncated = res.Truncated
		for _, p := range res.Patterns {
			rows = append(rows, row{p.Graph, p.Support})
		}
	default:
		log.Fatalf("unknown miner %q (want gspan or fsg)", *miner)
	}
	log.Printf("%d patterns in %s", len(rows), time.Since(t0).Round(time.Millisecond))
	if truncated {
		log.Printf("warning: mining truncated by timeout")
	}

	for i, r := range rows {
		if *top > 0 && i >= *top {
			log.Printf("... %d more (raise -top)", len(rows)-i)
			break
		}
		fmt.Printf("#%d support=%d (%.2f%%) nodes=%d edges=%d\n",
			i+1, r.support, 100*float64(r.support)/float64(len(db)), r.g.NumNodes(), r.g.NumEdges())
		for v := 0; v < r.g.NumNodes(); v++ {
			fmt.Printf("    v%d %s\n", v, alpha.Name(r.g.NodeLabel(v)))
		}
		for _, e := range r.g.Edges() {
			fmt.Printf("    e %d %d %d\n", e.From, e.To, int(e.Label))
		}
	}
}

// Command fsm runs either baseline frequent-subgraph miner (gSpan or
// the FSG-style apriori miner) over a graph database file. -closed
// mines closed patterns only; -maximal mines closed-only and prints the
// maximal patterns the miner decides from its own extension keys, as
// Phase 3 does. A -timeout that cuts the mine short prints only the
// patterns already decided:
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

	"graphsig/internal/dfscode"
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

	// One controller bounds the mine; nil leaves it unbounded.
	var ctl *runctl.Controller
	if *timeout > 0 {
		ctl = runctl.New(runctl.Options{Deadline: time.Now().Add(*timeout)})
	}

	var patterns []dfscode.Pattern
	truncated := false
	closedOnly := *closed || *maximal
	t0 := time.Now()
	switch *miner {
	case "gspan":
		res := gspan.Mine(db, gspan.Options{MinSupport: minSup, MaxEdges: *maxEdges, Ctl: ctl, ClosedOnly: closedOnly})
		patterns, truncated = res.Patterns, res.Truncated
		if *maximal {
			patterns = res.Maximal
		}
	case "fsg":
		res := fsg.Mine(db, fsg.Options{MinSupport: minSup, MaxEdges: *maxEdges, Ctl: ctl, ClosedOnly: closedOnly})
		patterns, truncated = res.Patterns, res.Truncated
		if *maximal {
			patterns = res.Maximal
		}
	default:
		log.Fatalf("unknown miner %q (want gspan or fsg)", *miner)
	}
	log.Printf("%d patterns in %s", len(patterns), time.Since(t0).Round(time.Millisecond))
	if truncated {
		log.Printf("warning: mining truncated by timeout")
	}

	for i, p := range patterns {
		if *top > 0 && i >= *top {
			log.Printf("... %d more (raise -top)", len(patterns)-i)
			break
		}
		g := p.Code.Graph()
		fmt.Printf("#%d support=%d (%.2f%%) nodes=%d edges=%d\n",
			i+1, p.Support, 100*float64(p.Support)/float64(len(db)), g.NumNodes(), g.NumEdges())
		for v := 0; v < g.NumNodes(); v++ {
			fmt.Printf("    v%d %s\n", v, alpha.Name(g.NodeLabel(v)))
		}
		for _, e := range g.Edges() {
			fmt.Printf("    e %d %d %d\n", e.From, e.To, int(e.Label))
		}
	}
}

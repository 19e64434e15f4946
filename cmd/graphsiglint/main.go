// Command graphsiglint runs graphsig's project-invariant analyzer suite
// (internal/analysis) over the repository. It is stdlib-only and is
// wired into `make lint`, CI, and a meta-test, so determinism and
// runtime-safety conventions are enforced rather than remembered.
//
// Usage:
//
//	graphsiglint [-run maporder,errwrap] [-json] [-list] [packages ...]
//
// Packages default to ./... resolved from the current directory. The
// exit status is 0 when clean, 1 when diagnostics were reported, and 2
// on usage or load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"graphsig/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		jsonOut = flag.Bool("json", false, "emit diagnostics as a JSON array")
		filter  = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		list    = flag.Bool("list", false, "list the available analyzers and exit")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := analysis.ByName(*filter)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphsiglint:", err)
		return 2
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphsiglint:", err)
		return 2
	}

	diags, err := analysis.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphsiglint:", err)
		return 2
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "graphsiglint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "graphsiglint: %d violation(s) in %d package(s) checked\n", len(diags), len(pkgs))
		}
		return 1
	}
	return 0
}

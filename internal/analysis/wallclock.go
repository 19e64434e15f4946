package analysis

import (
	"go/ast"
	"go/types"
)

// WallClock forbids wall-clock reads and unseeded global randomness in
// deterministic paths. A canonical code, fingerprint, or cache key that
// folds in time.Now (or draws from the shared math/rand source, which
// is seeded randomly at process start) differs between runs, silently
// breaking result caching, request coalescing, and the reproducibility
// of mined pattern sets. Deadline handling and phase timing belong in
// runctl, which owns the clock; code that genuinely needs randomness must thread an
// explicitly seeded *rand.Rand.
var WallClock = &Analyzer{
	Name: "wallclock",
	Doc: "forbids time.Now/Since/Until and unseeded math/rand in deterministic " +
		"packages (dfscode, graph, feature, fvmine, core) and in the miners and " +
		"matcher (fsg, gspan, leap, isomorph), which read the clock only through runctl",
	Run: runWallClock,
}

var wallClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// seededRandFuncs are the math/rand constructors that are fine anywhere:
// they build an explicitly seeded generator instead of drawing from the
// global source.
var seededRandFuncs = map[string]bool{
	"New":       true,
	"NewSource": true,
}

func runWallClock(pass *Pass) error {
	if !pass.inWallClockScope() {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.objOf(sel.Sel).(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Methods (e.g. (*rand.Rand).Intn) are allowed: only
			// package-level functions reach the global clock/source.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"time.%s in deterministic path; timing belongs in runctl, not in canonical output",
						fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !seededRandFuncs[fn.Name()] {
					pass.Reportf(sel.Pos(),
						"unseeded rand.%s in deterministic path; thread an explicit rand.New(rand.NewSource(seed))",
						fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

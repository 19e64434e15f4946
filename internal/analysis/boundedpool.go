package analysis

import (
	"go/ast"
)

// BoundedPool flags unbounded goroutine fan-out: a `go` statement
// inside a range loop with nothing in the loop body that can block the
// spawn rate. GraphSig fans out over databases, vector groups, and
// pattern lists whose sizes are input-controlled; a goroutine per
// element with no semaphore means thousands of concurrent miners on a
// large input, and the scheduler thrash defeats the parallelism the
// fan-out was meant to buy. The mining pipeline's fan-outs all run on
// runctl.Controller.FanOut, a worker pool spawned by a counted loop;
// such pools (`for w := 0; w < workers; w++`) are bounded by
// construction and not flagged. A range loop that must spawn acquires a
// channel semaphore in the loop body *before* the spawn
// (`sem <- struct{}{}` then `go ...`).
//
// A channel send inside the spawned function literal does not count:
// the loop would still spawn every goroutine before any of them block,
// which bounds concurrency of the work but not the goroutine count.
var BoundedPool = &Analyzer{
	Name: "boundedpool",
	Doc: "a go statement in a range loop must be preceded by a blocking " +
		"acquire (channel-semaphore send) in the same loop body, so fan-out " +
		"is bounded by a pool instead of the input size; mining fan-outs " +
		"use runctl.Controller.FanOut, which needs neither",
	Run: runBoundedPool,
}

func runBoundedPool(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if rng, ok := n.(*ast.RangeStmt); ok {
				checkBoundedLoop(pass, rng.Body)
			}
			return true
		})
	}
	return nil
}

// checkBoundedLoop scans one range-loop body. Spawns are attributed to
// the innermost range loop: nested range loops are skipped here (the
// outer Inspect visits them separately), and function literals open a
// new scope whose loops are likewise their own problem.
func checkBoundedLoop(pass *Pass, body *ast.BlockStmt) {
	var goStmts []*ast.GoStmt
	bounded := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			return false
		case *ast.GoStmt:
			goStmts = append(goStmts, s)
			// Sends inside the spawned function don't bound the spawn
			// rate — every iteration still launches before any blocks.
			return false
		case *ast.SendStmt:
			bounded = true
		}
		return true
	})
	if bounded {
		return
	}
	for _, g := range goStmts {
		pass.Reportf(g.Pos(),
			"unbounded goroutine fan-out over a range loop; acquire a semaphore slot (sem <- struct{}{}) before spawning so concurrency is bounded by a pool, not the input size")
	}
}

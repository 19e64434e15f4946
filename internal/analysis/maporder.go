package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` over a map, inside a deterministic path, whose
// iteration feeds an order-sensitive sink: writes into a hasher or
// string builder, string concatenation, or appends to an outer slice
// that is never sorted afterwards. Go randomizes map iteration order on
// purpose, so any byte stream or slice assembled this way differs
// between runs — fatal for canonical DFS codes, database fingerprints,
// and config cache keys, which coalesce requests and key result caches.
//
// The accepted idiom — collect the keys, sort, then iterate the sorted
// slice — is recognized: an append whose slice is passed to a sort.* or
// slices.* call later in the same function is not reported.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc: "flags map iteration feeding hashes, string building, or unsorted " +
		"slice assembly in deterministic packages (dfscode, graph, feature, " +
		"fvmine, core/confighash.go)",
	Run: runMapOrder,
}

// writeMethods are the order-sensitive byte-sink methods shared by
// hash.Hash, strings.Builder, and bytes.Buffer.
var writeMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
}

var fmtWriterFuncs = map[string]bool{
	"Fprint":   true,
	"Fprintf":  true,
	"Fprintln": true,
}

func runMapOrder(pass *Pass) error {
	if !pass.inDeterministicScope() {
		return nil
	}
	for _, file := range pass.Files {
		// Walk function by function so the "sorted afterwards"
		// suppression can scan the rest of the enclosing body.
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body == nil {
				return true
			}
			ast.Inspect(body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				pass.checkMapRange(rs, body)
				return true
			})
			return true
		})
	}
	return nil
}

func (p *Pass) checkMapRange(rs *ast.RangeStmt, enclosing *ast.BlockStmt) {
	tv, ok := p.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	// `for range m {}` cannot observe iteration order.
	if rs.Key == nil {
		return
	}

	type appendSink struct {
		obj types.Object
		pos token.Pos
	}
	var appends []appendSink

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok {
				if writeMethods[sel.Sel.Name] && p.declaredOutside(sel.X, rs) {
					p.Reportf(v.Pos(),
						"map iteration feeds %s.%s; map order is nondeterministic — collect and sort the keys first",
						exprText(sel.X), sel.Sel.Name)
					return true
				}
				if obj := p.objOf(sel.Sel); obj != nil && obj.Pkg() != nil &&
					obj.Pkg().Path() == "fmt" && fmtWriterFuncs[sel.Sel.Name] &&
					len(v.Args) > 0 && p.declaredOutside(v.Args[0], rs) {
					p.Reportf(v.Pos(),
						"map iteration feeds fmt.%s into %s; map order is nondeterministic — collect and sort the keys first",
						sel.Sel.Name, exprText(v.Args[0]))
					return true
				}
			}
		case *ast.AssignStmt:
			if len(v.Lhs) != 1 || len(v.Rhs) != 1 {
				return true
			}
			lhs := rootIdent(v.Lhs[0])
			if lhs == nil || !p.declaredOutside(v.Lhs[0], rs) {
				return true
			}
			obj := p.objOf(lhs)
			if obj == nil {
				return true
			}
			if v.Tok == token.ADD_ASSIGN || (v.Tok == token.ASSIGN && isSelfConcat(v.Rhs[0], lhs)) {
				if basic, ok := obj.Type().Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
					p.Reportf(v.Pos(),
						"map iteration concatenates onto string %s; map order is nondeterministic — collect and sort the keys first",
						lhs.Name)
				}
				return true
			}
			if call, ok := v.Rhs[0].(*ast.CallExpr); ok && p.isBuiltinAppend(call) {
				appends = append(appends, appendSink{obj: obj, pos: v.Pos()})
			}
		}
		return true
	})

	for _, a := range appends {
		if !p.sortedAfter(a.obj, rs, enclosing) {
			p.Reportf(a.pos,
				"map iteration appends to %s which is never sorted afterwards; map order is nondeterministic — sort %s before use",
				a.obj.Name(), a.obj.Name())
		}
	}
}

// declaredOutside reports whether the expression roots at an identifier
// declared outside the range statement (an outer accumulator rather than
// a per-iteration local).
func (p *Pass) declaredOutside(e ast.Expr, rs *ast.RangeStmt) bool {
	root := rootIdent(e)
	if root == nil {
		return false
	}
	obj := p.objOf(root)
	if obj == nil {
		return false
	}
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

// sortedAfter reports whether obj is mentioned in a sort.* or slices.*
// call after the range statement within the enclosing function body.
func (p *Pass) sortedAfter(obj types.Object, rs *ast.RangeStmt, enclosing *ast.BlockStmt) bool {
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, ok := p.objOf(pkgID).(*types.PkgName); !ok ||
			(pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && p.objOf(id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

func (p *Pass) isBuiltinAppend(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.objOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// isSelfConcat reports whether rhs is a `x + ...` chain mentioning lhs.
func isSelfConcat(rhs ast.Expr, lhs *ast.Ident) bool {
	bin, ok := rhs.(*ast.BinaryExpr)
	if !ok || bin.Op != token.ADD {
		return false
	}
	mentions := false
	ast.Inspect(bin, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == lhs.Name {
			mentions = true
		}
		return !mentions
	})
	return mentions
}

func exprText(e ast.Expr) string {
	if id := rootIdent(e); id != nil {
		return id.Name
	}
	return "writer"
}

package analysis

import (
	"go/ast"
	"go/types"
	"path"
	"path/filepath"
)

// deterministicScope lists the packages whose outputs must be
// byte-for-byte reproducible: canonical DFS codes (dfscode), database
// fingerprints and the graph text codec (graph), feature extraction
// (feature), closed-vector mining (fvmine), and the mining core whose
// answer-set assembly and config cache key feed result caching.
// maporder applies everywhere inside this scope; packages are matched
// by their final import path segment so the rule also binds the
// analyzer test corpora.
var deterministicScope = map[string][]string{
	"dfscode": nil, // nil = every file in the package
	"graph":   nil,
	"feature": nil,
	"fvmine":  nil,
	"core":    nil,
}

// wallClockScope lists the packages that must never read the clock:
// deterministicScope minus the files that legitimately do (core outside
// confighash.go measures phase timings, Profile.RWR etc., which never
// feed canonical output), plus the miners and the matcher under them
// (fsg, gspan, leap, isomorph). Those stop and bound their runs only
// through a runctl controller, which owns the clock.
var wallClockScope = map[string][]string{
	"dfscode":  nil,
	"graph":    nil,
	"feature":  nil,
	"fvmine":   nil,
	"core":     {"confighash.go"},
	"fsg":      nil,
	"gspan":    nil,
	"leap":     nil,
	"isomorph": nil,
}

// spawnScope lists the packages in which every goroutine must be
// launched through runctl.Spawn's panic barrier: the long-lived job
// orchestration and HTTP serving layers, where a stray panic kills a
// worker pool or the process instead of one request.
var spawnScope = map[string]bool{
	"jobs":   true,
	"server": true,
}

// fsyncScope lists the packages whose file handles carry durability
// guarantees: a Sync or Close error discarded there turns an fsync
// failure into silently lost acknowledged data. The journal is the
// write-ahead log; the store writes segment files and manifests whose
// crash-safety contract is "manifest-named means fully on disk".
var fsyncScope = map[string]bool{
	"journal": true,
	"store":   true,
	// The shard package sits on the store and is held to the same
	// rule for any file it writes.
	"shard": true,
}

// keytaintScope lists the packages where map-iteration-order or
// wall-clock taint can corrupt a determinism contract: the canonical-
// code and fingerprint producers, the mining pipeline that emits
// answer sets, and the caching/journaling layers keyed on them.
var keytaintScope = map[string]bool{
	"dfscode": true,
	"graph":   true,
	"feature": true,
	"fvmine":  true,
	"core":    true,
	"jobs":    true,
	"shard":   true,
	"store":   true,
	"journal": true,
}

// inDeterministicScope reports whether the file is part of a
// deterministic path for maporder.
func (p *Pass) inDeterministicScope(file *ast.File) bool {
	return p.inScope(deterministicScope, file)
}

// inWallClockScope reports whether the file is part of a deterministic
// path for wallclock.
func (p *Pass) inWallClockScope(file *ast.File) bool {
	return p.inScope(wallClockScope, file)
}

func (p *Pass) inScope(scope map[string][]string, file *ast.File) bool {
	files, ok := scope[path.Base(p.ImportPath)]
	if !ok {
		return false
	}
	if files == nil {
		return true
	}
	name := filepath.Base(p.Fset.Position(file.Pos()).Filename)
	for _, f := range files {
		if f == name {
			return true
		}
	}
	return false
}

func (p *Pass) inSpawnScope() bool {
	return spawnScope[path.Base(p.ImportPath)]
}

func (p *Pass) inFsyncScope() bool {
	return fsyncScope[path.Base(p.ImportPath)]
}

func (p *Pass) inKeyTaintScope() bool {
	return keytaintScope[path.Base(p.ImportPath)]
}

// isNamedType reports whether t (after pointer indirection when deref is
// set) is the named type pkgName.typeName. Packages are matched by name,
// not full import path, so the real graphsig/internal/runctl and the
// analyzer corpus's stand-in runctl both satisfy the rule.
func isNamedType(t types.Type, deref bool, pkgName, typeName string) bool {
	if deref {
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == pkgName && obj.Name() == typeName
}

// isContextType reports whether t is context.Context (matched by full
// path: there is exactly one context package).
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// rootIdent unwraps selectors, index and call expressions to the
// left-most identifier: m, m.field, m[i].x all root at m.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		case *ast.CallExpr:
			e = v.Fun
		default:
			return nil
		}
	}
}

// objOf resolves an identifier to its object (use or def).
func (p *Pass) objOf(id *ast.Ident) types.Object {
	if o := p.TypesInfo.Uses[id]; o != nil {
		return o
	}
	return p.TypesInfo.Defs[id]
}

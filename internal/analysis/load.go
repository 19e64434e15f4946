package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

// Package is one type-checked package under analysis.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string

	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPackage is the subset of `go list -json` output the loader uses.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") in the module rooted at dir and
// returns the matched packages parsed and type-checked. It shells out to
// `go list -export -deps -json`, which yields both the file lists of the
// target packages and compiled export data for every dependency, so the
// type checker never needs golang.org/x/tools/go/packages.
//
// Only non-test files are analyzed: the invariants graphsiglint enforces
// are about production determinism and runtime safety; tests routinely
// (and legitimately) use wall clocks, naked goroutines, and fixtures.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := map[string]string{}
	var targets []*listedPackage
	for _, lp := range listed {
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}
	// `go list` reports an empty match with a warning and exit 0; an
	// analyzer run over zero packages would pass vacuously, so surface
	// it as an error instead.
	if len(targets) == 0 {
		return nil, fmt.Errorf("patterns %v matched no packages", patterns)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var pkgs []*Package
	for _, lp := range targets {
		if lp.Name == "" && lp.Error != nil {
			return nil, fmt.Errorf("load %s: %s", lp.ImportPath, lp.Error.Err)
		}
		pkg, err := checkPackage(fset, imp, lp.ImportPath, lp.Name, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %w\n%s", patterns, err, stderr.String())
	}
	dec := json.NewDecoder(&stdout)
	var out []*listedPackage
	for {
		lp := &listedPackage{}
		if err := dec.Decode(lp); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return nil, fmt.Errorf("decode go list output: %w", err)
		}
		out = append(out, lp)
	}
	return out, nil
}

// checkPackage parses and type-checks one package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, importPath, name, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	var fileNames []string
	for _, f := range goFiles {
		path := f
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, f)
		}
		parsed, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		files = append(files, parsed)
		fileNames = append(fileNames, path)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tpkg, _ := conf.Check(importPath, fset, files, info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, typeErrs[0])
	}
	return &Package{
		ImportPath: importPath,
		Name:       name,
		Dir:        dir,
		GoFiles:    fileNames,
		Fset:       fset,
		Syntax:     files,
		Types:      tpkg,
		TypesInfo:  info,
	}, nil
}

// exportImporter resolves imports from the export-data files recorded by
// `go list -export`, with an optional overlay of already-checked local
// packages (used by the testdata loader).
type exportImporter struct {
	gc    types.Importer
	local map[string]*types.Package
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return &exportImporter{
		gc:    importer.ForCompiler(fset, "gc", lookup),
		local: map[string]*types.Package{},
	}
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := ei.local[path]; ok {
		return p, nil
	}
	return ei.gc.Import(path)
}

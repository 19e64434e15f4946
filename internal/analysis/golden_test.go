package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// loadTestdata parses and type-checks testdata/src packages in the
// given order (dependencies first). Stdlib imports resolve through the
// same `go list -export` machinery the production loader uses; imports
// of earlier-listed testdata packages resolve locally.
func loadTestdata(t *testing.T, names ...string) map[string]*Package {
	t.Helper()
	fset := token.NewFileSet()

	type parsedPkg struct {
		name  string
		dir   string
		files []*ast.File
		paths []string
	}
	var parsed []*parsedPkg
	local := map[string]bool{}
	for _, name := range names {
		local[name] = true
	}
	stdlib := map[string]bool{}
	for _, name := range names {
		dir := filepath.Join("testdata", "src", name)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("read %s: %v", dir, err)
		}
		pp := &parsedPkg{name: name, dir: dir}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, e.Name())
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parse %s: %v", path, err)
			}
			pp.files = append(pp.files, f)
			pp.paths = append(pp.paths, e.Name())
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if !local[p] {
					stdlib[p] = true
				}
			}
		}
		parsed = append(parsed, pp)
	}

	exports := map[string]string{}
	if len(stdlib) > 0 {
		var paths []string
		for p := range stdlib {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		listed, err := goList(".", paths)
		if err != nil {
			t.Fatalf("go list stdlib deps: %v", err)
		}
		for _, lp := range listed {
			if lp.Export != "" {
				exports[lp.ImportPath] = lp.Export
			}
		}
	}

	imp := newExportImporter(fset, exports)
	out := map[string]*Package{}
	for _, pp := range parsed {
		// Nested corpus dirs ("keytaint/core") keep the full path as
		// their import path — scope matching sees path.Base — while the
		// package name must be a bare identifier.
		pkg, err := checkPackage(fset, imp, pp.name, path.Base(pp.name), pp.dir, pp.paths)
		if err != nil {
			t.Fatalf("typecheck testdata package %s: %v", pp.name, err)
		}
		imp.local[pp.name] = pkg.Types
		out[pp.name] = pkg
	}
	return out
}

var wantStringRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// runGolden applies one analyzer to one corpus package and checks the
// diagnostics against the `// want "substring"` comments: every
// diagnostic must be wanted on its line, every want must be hit.
func runGolden(t *testing.T, a *Analyzer, pkg *Package) {
	t.Helper()
	diags, err := Run([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	wants := map[string][]string{} // "file:line" -> expected substrings
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantStringRe.FindAllStringSubmatch(text, -1) {
					s, err := strconv.Unquote(`"` + m[1] + `"`)
					if err != nil {
						t.Fatalf("%s: bad want string %q: %v", key, m[1], err)
					}
					wants[key] = append(wants[key], s)
				}
			}
		}
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		matched := false
		rest := wants[key][:0:0]
		for _, w := range wants[key] {
			if !matched && strings.Contains(d.Message, w) {
				matched = true
				continue
			}
			rest = append(rest, w)
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if len(rest) == 0 {
			delete(wants, key)
		} else {
			wants[key] = rest
		}
	}
	for key, subs := range wants {
		for _, w := range subs {
			t.Errorf("%s: expected diagnostic containing %q, got none", key, w)
		}
	}
}

func TestMapOrderGolden(t *testing.T) {
	pkgs := loadTestdata(t, "dfscode")
	runGolden(t, MapOrder, pkgs["dfscode"])
}

func TestWallClockGolden(t *testing.T) {
	pkgs := loadTestdata(t, "fvmine")
	runGolden(t, WallClock, pkgs["fvmine"])
}

// TestWallClockFileScope checks that every file of a package named core
// is in scope: clock reads in confighash.go and timing.go are both
// flagged.
func TestWallClockFileScope(t *testing.T) {
	pkgs := loadTestdata(t, "core")
	runGolden(t, WallClock, pkgs["core"])
}

// TestDeterministicScopeExcludesOtherPackages runs the deterministic-
// path analyzers over a corpus that is out of scope: the identical
// patterns must produce no diagnostics.
func TestDeterministicScopeExcludesOtherPackages(t *testing.T) {
	pkgs := loadTestdata(t, "outside")
	runGolden(t, MapOrder, pkgs["outside"])
	runGolden(t, WallClock, pkgs["outside"])
}

func TestCtxFirstGolden(t *testing.T) {
	pkgs := loadTestdata(t, "ctxfirst")
	runGolden(t, CtxFirst, pkgs["ctxfirst"])
}

func TestSafeGoGolden(t *testing.T) {
	pkgs := loadTestdata(t, "runctl", "jobs")
	runGolden(t, SafeGo, pkgs["jobs"])
	// The spawn helper's own package is outside the spawn scope: its
	// internal `go` statement is the mechanism, not a violation.
	runGolden(t, SafeGo, pkgs["runctl"])
}

func TestCheckpointGolden(t *testing.T) {
	pkgs := loadTestdata(t, "runctl", "checkpoint")
	runGolden(t, CheckpointAnalyzer, pkgs["checkpoint"])
}

func TestFsyncCloseGolden(t *testing.T) {
	pkgs := loadTestdata(t, "journal", "store")
	runGolden(t, FsyncClose, pkgs["journal"])
	runGolden(t, FsyncClose, pkgs["store"])
}

// TestFsyncCloseScopeExcludesOtherPackages: the identical discard
// patterns outside the durability scope produce no diagnostics.
func TestFsyncCloseScopeExcludesOtherPackages(t *testing.T) {
	pkgs := loadTestdata(t, "outside")
	runGolden(t, FsyncClose, pkgs["outside"])
}

func TestErrWrapGolden(t *testing.T) {
	pkgs := loadTestdata(t, "errwrap")
	runGolden(t, ErrWrap, pkgs["errwrap"])
}

func TestBoundedPoolGolden(t *testing.T) {
	pkgs := loadTestdata(t, "boundedpool")
	runGolden(t, BoundedPool, pkgs["boundedpool"])
}

// TestFsyncCloseShardScope: the shard package is in the durability
// scope.
func TestFsyncCloseShardScope(t *testing.T) {
	pkgs := loadTestdata(t, "shard")
	runGolden(t, FsyncClose, pkgs["shard"])
}

func TestLockGuardGolden(t *testing.T) {
	pkgs := loadTestdata(t, "lockguard")
	runGolden(t, LockGuard, pkgs["lockguard"])
}

func TestAtomicMixGolden(t *testing.T) {
	pkgs := loadTestdata(t, "atomicmix")
	runGolden(t, AtomicMix, pkgs["atomicmix"])
}

func TestSharedCaptureGolden(t *testing.T) {
	pkgs := loadTestdata(t, "runctl", "sharedcapture")
	runGolden(t, SharedCapture, pkgs["sharedcapture"])
}

func TestKeyTaintGolden(t *testing.T) {
	pkgs := loadTestdata(t, "keytaint/journal", "keytaint/core", "keytaint/jobs")
	runGolden(t, KeyTaint, pkgs["keytaint/core"])
	runGolden(t, KeyTaint, pkgs["keytaint/jobs"])
}

// TestKeyTaintScopeExcludesOtherPackages: identical taint flows outside
// the determinism scope produce no diagnostics.
func TestKeyTaintScopeExcludesOtherPackages(t *testing.T) {
	pkgs := loadTestdata(t, "outside")
	runGolden(t, KeyTaint, pkgs["outside"])
}

func TestObsNamesGolden(t *testing.T) {
	pkgs := loadTestdata(t, "obs", "obsnames")
	runGolden(t, ObsNames, pkgs["obs"])
	runGolden(t, ObsNames, pkgs["obsnames"])
}

func TestByName(t *testing.T) {
	got, err := ByName("maporder, errwrap")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != MapOrder || got[1] != ErrWrap {
		t.Fatalf("ByName returned wrong analyzers: %v", got)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
	all, err := ByName("")
	if err != nil || len(all) != len(All()) {
		t.Fatalf("empty filter should return the full suite")
	}
}

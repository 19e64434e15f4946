package analysis

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for loader error-path tests.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const loadTestGoMod = "module loadtest\n\ngo 1.22\n"

func TestLoadTypeErrorPackage(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":  loadTestGoMod,
		"main.go": "package main\n\nfunc main() { var x int = \"not an int\"; _ = x }\n",
	})
	pkgs, err := Load(dir, "./...")
	if err == nil {
		t.Fatalf("expected an error for a package with type errors, got %d packages", len(pkgs))
	}
}

func TestLoadEmptyPatternMatch(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": loadTestGoMod,
		// A module with no Go files at all: every pattern matches nothing.
		"README.md": "nothing to build here\n",
	})
	if pkgs, err := Load(dir, "./..."); err == nil {
		t.Fatalf("expected an error for a pattern matching no packages, got %d packages", len(pkgs))
	}
	if pkgs, err := Load(dir, "./no/such/dir"); err == nil {
		t.Fatalf("expected an error for a nonexistent directory pattern, got %d packages", len(pkgs))
	}
}

func TestLoadValidModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": loadTestGoMod,
		"lib.go": "package lib\n\nimport \"fmt\"\n\n// Hello greets.\nfunc Hello() string { return fmt.Sprintf(\"hi\") }\n",
	})
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Types == nil || pkgs[0].TypesInfo == nil {
		t.Fatalf("expected one fully type-checked package, got %+v", pkgs)
	}
	if pkgs[0].ImportPath != "loadtest" {
		t.Fatalf("import path = %q, want loadtest", pkgs[0].ImportPath)
	}
}

// TestImporterMissingExportData exercises the "no export data" path:
// the gc importer must fail loudly when `go list -export` supplied no
// compiled archive for an import, instead of silently treating the
// package as empty.
func TestImporterMissingExportData(t *testing.T) {
	imp := newExportImporter(token.NewFileSet(), map[string]string{})
	if _, err := imp.Import("fmt"); err == nil {
		t.Fatal("expected an error importing with no export data")
	} else if !strings.Contains(err.Error(), "no export data") {
		t.Fatalf("error should name the missing export data, got: %v", err)
	}
}

package analysis

import "testing"

// TestRepositoryIsClean runs the full analyzer suite over the whole
// module from inside `go test`: a new violation fails `make test` even
// when the dedicated CI lint step is skipped. This is the same
// invocation `make lint` performs via cmd/graphsiglint.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module lint in -short mode")
	}
	// go test runs in this package's directory, two levels below the
	// module root.
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader matched no packages")
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatalf("run analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("graphsiglint found %d violation(s); fix them or add a justified //graphsiglint:ignore", len(diags))
	}
}

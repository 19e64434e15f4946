package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckRegressionRWRIterations: a baseline that recorded 0 RWR power
// iterations gates a fresh run with any, and one without the field is
// refused rather than read as 0.
func TestCheckRegressionRWRIterations(t *testing.T) {
	base := benchJSON{
		Dataset: "MOLT-4", Graphs: 120, Runs: 5, Radius: 3, Parallelism: 1,
		AllocsPerRun: 100, Patterns: 81, WindowHits: 10, WindowMisses: 5,
		MedianRunSec: 0.04, FSGMinChecks: 50, FVMineTails: 20,
		Stages: map[string]stageJSON{"rwr": {Units: 3151 * 5}},
	}
	write := func(t *testing.T, drop string) string {
		t.Helper()
		data, err := json.Marshal(base)
		if err != nil {
			t.Fatal(err)
		}
		var fields map[string]any
		if err := json.Unmarshal(data, &fields); err != nil {
			t.Fatal(err)
		}
		delete(fields, drop)
		if data, err = json.Marshal(fields); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "base.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	path := write(t, "")
	fresh := base
	if err := checkRegression(path, fresh, 2); err != nil {
		t.Errorf("0 iterations against a recorded 0: %v", err)
	}
	fresh.RWRIterations = 1
	if err := checkRegression(path, fresh, 2); err == nil || !strings.Contains(err.Error(), "RWR iteration regression") {
		t.Errorf("1 iteration against a recorded 0: got %v, want an RWR iteration regression", err)
	}
	if err := checkRegression(write(t, "rwrIterations"), base, 2); err == nil || !strings.Contains(err.Error(), "lacks") {
		t.Errorf("baseline without rwrIterations: got %v, want it refused", err)
	}
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) plus the motivating Figs 2 and 4, on the synthetic
// screens of internal/chem. Each experiment returns structured rows and
// optionally prints a paper-style table; cmd/experiments is the CLI and
// bench_test.go wraps each row in a testing.B benchmark. Absolute times
// are hardware-bound; the assertions of EXPERIMENTS.md are about shape
// (growth order, ratios, crossovers).
package experiments

import (
	"fmt"
	"io"
	"time"

	"graphsig/internal/runctl"
)

// Config controls workload sizes so the full suite finishes on a laptop.
type Config struct {
	// MiningN is the molecule count for the mining experiments
	// (Figs 2, 9, 11, 12, 16; default 300).
	MiningN int
	// ProfileN is the per-dataset molecule count for the Fig 10 profile
	// (default 200).
	ProfileN int
	// ClassifyN is the per-dataset molecule count for Table VI / Fig 17
	// (default 600).
	ClassifyN int
	// RunBudget bounds each baseline miner run; runs exceeding it are
	// reported as DNF, mirroring the paper's ">10 hours" entries
	// (default 15s).
	RunBudget time.Duration
	// Seed drives dataset generation.
	Seed int64
	// Datasets filters the multi-dataset experiments to these names
	// (nil = all).
	Datasets []string
	// Out receives the printed tables (nil = discard).
	Out io.Writer
	// Charts also renders a text chart of each series to Out.
	Charts bool
	// CSVDir, when set, receives one CSV file per experiment for
	// external plotting.
	CSVDir string
}

// Defaults returns the laptop-scale configuration.
func Defaults() Config {
	return Config{
		MiningN:   300,
		ProfileN:  200,
		ClassifyN: 600,
		RunBudget: 15 * time.Second,
		Seed:      1,
	}
}

func (c *Config) fill() {
	d := Defaults()
	if c.MiningN <= 0 {
		c.MiningN = d.MiningN
	}
	if c.ProfileN <= 0 {
		c.ProfileN = d.ProfileN
	}
	if c.ClassifyN <= 0 {
		c.ClassifyN = d.ClassifyN
	}
	if c.RunBudget <= 0 {
		c.RunBudget = d.RunBudget
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
}

// baselineCtl returns a fresh controller that stops one baseline miner
// run after RunBudget. Every run needs its own: a trip is sticky.
func (c *Config) baselineCtl() *runctl.Controller {
	return runctl.New(runctl.Options{Deadline: time.Now().Add(c.RunBudget)})
}

func (c *Config) printf(format string, args ...any) {
	if c.Out != nil {
		fmt.Fprintf(c.Out, format, args...)
	}
}

func (c *Config) wantDataset(name string) bool {
	if len(c.Datasets) == 0 {
		return true
	}
	for _, d := range c.Datasets {
		if d == name {
			return true
		}
	}
	return false
}

// fmtDuration renders a duration or DNF for truncated runs.
func fmtDuration(d time.Duration, dnf bool) string {
	if dnf {
		return "DNF"
	}
	return d.Round(time.Millisecond).String()
}

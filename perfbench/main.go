// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload for a fixed time, checks every answer it gets, and
// prints one JSON object as the last line of standard output:
//
//	bash perfbench/run.sh --workload mine-balanced --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, measured
// with tracing off. With --trace 1 the run is the traced one: it records
// spans around every call into a layer and reports the per-layer
// metrics instead. Human-readable lines, one per metric with its unit,
// go to standard error.
//
// The seed drives everything the program receives: the order of the
// corpus and, on served-jobs, the stream of request configs. The corpus
// itself is the MOLT-4 screen at its catalogue seed, so the cost of a
// run does not swing with the seed (WORKLOADS.md explains why).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload hands back: the answer accounting and the
// metrics for the requested mode.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, value float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// options are the command-line settings every workload sees.
type options struct {
	seed   int64
	window time.Duration
	trace  bool
}

var workloads = map[string]func(options) (report, error){
	"mine-balanced":  func(o options) (report, error) { return runMine(balanced, o) },
	"mine-fsm-heavy": func(o options) (report, error) { return runMine(fsmHeavy, o) },
	"served-jobs":    runServed,
}

func main() {
	name := flag.String("workload", "", "workload to run: mine-balanced, mine-fsm-heavy or served-jobs")
	seed := flag.Int64("seed", 1, "seed for the corpus order and the request stream")
	seconds := flag.Int("seconds", 20, "length of the measured window, in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	goldenOut := flag.String("write-golden", "", "write the golden answer digests for seeds 1..64 to this file and exit")
	flag.Parse()

	if *goldenOut != "" {
		if err := writeGolden(*goldenOut, 64); err != nil {
			fatal(err)
		}
		return
	}
	run, ok := workloads[*name]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("--seconds must be at least 1"))
	}
	rep, err := run(options{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1})
	if err != nil {
		fatal(err)
	}
	if rep.Attempted < 1 {
		fatal(fmt.Errorf("workload %s attempted no operation", *name))
	}
	rate := float64(rep.Failed) / float64(rep.Attempted)
	logf("%-34s %12.6g %s  (%d of %d operations)", "error_rate", rate, "ratio", rep.Failed, rep.Attempted)
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("%-34s %12.6g %s", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest nearest-rank percentile of xs that still has
// at least ten samples above it, and that percentile's name. With fewer
// than eleven samples it falls back to the maximum.
func tail(xs []float64) (float64, string) {
	if len(xs) == 0 {
		return 0, "none"
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 11 {
		return s[n-1], fmt.Sprintf("max of %d", n)
	}
	k := n - 11 // ten samples lie beyond index k
	return s[k], fmt.Sprintf("p%d of %d", 100*(k+1)/n, n)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process high-water mark (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// latencyMetrics adds the end-to-end latency and throughput metrics for
// one timed operation class.
func latencyMetrics(rep *report, what string, samples []float64, done int, elapsed time.Duration) {
	p50 := median(samples)
	tv, tname := tail(samples)
	rep.set("p50_ms", p50, "ms")
	rep.set("tail_ms", tv, "ms")
	rep.set("ops_per_s", float64(done)/elapsed.Seconds(), "1/s")
	logf("timed operation: %s; p50 over %d samples, tail is the %s", what, len(samples), tname)
}

// setupMetric reports the median of the run's set-up durations.
func setupMetric(rep *report, durations []time.Duration) {
	xs := make([]float64, len(durations))
	for i, d := range durations {
		xs[i] = d.Seconds()
	}
	rep.set("setup_s", median(xs), "s")
	logf("setup_s is the median of %d set-ups", len(xs))
}

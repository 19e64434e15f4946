package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"graphsig/internal/core"
	"graphsig/internal/graph"
)

// setupRepeats is how many times a run sets up, so that setup_s is a
// median rather than one sample.
const setupRepeats = 3

// runMine is an in-memory mining workload: core.Mine with verification
// on, repeated on one corpus for the whole window after an untimed
// warm-up mine.
func runMine(shape mineShape, o options) (report, error) {
	cfg := mineConfig(shape.radius)
	repeats := setupRepeats
	if o.trace {
		repeats = 1
	}
	var setups []time.Duration
	var db []*graph.Graph
	var warm answer
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		db = corpus(shape.graphs, o.seed)
		// The warm-up mine freezes every graph's CSR adjacency and fills
		// the VF2 state pools, which the timed mines then reuse.
		warm = digest(core.Mine(db, cfg).Subgraphs)
		setups = append(setups, time.Since(t0))
	}
	want, source, err := expectedAnswer(shape, o.seed, db)
	if err != nil {
		return report{}, err
	}
	logf("%s: %d graphs, radius %d, parallelism %d, seed %d; expected %d patterns, digest %s (%s)",
		shape.name, shape.graphs, shape.radius, cfg.Parallelism, o.seed, want.Patterns, want.Digest, source)
	if warm != want {
		logf("warm-up mine gave %d patterns, digest %s: wrong answer", warm.Patterns, warm.Digest)
	}
	if o.trace {
		return traceMine(shape, db, cfg, want, o)
	}

	var rep report
	var lat []float64
	cpu0 := cpuMs()
	start := time.Now()
	for time.Since(start) < o.window {
		t := time.Now()
		res := core.Mine(db, cfg)
		lat = append(lat, msSince(t))
		rep.Attempted++
		if got := digest(res.Subgraphs); res.Truncated || got != want {
			rep.Failed++
			logf("mine %d: %d patterns, digest %s, truncated %v: wrong answer", rep.Attempted, got.Patterns, got.Digest, res.Truncated)
		}
	}
	elapsed := time.Since(start)
	cpu := cpuMs() - cpu0
	rep.Correct = rep.Failed == 0 && warm == want
	setupMetric(&rep, setups)
	latencyMetrics(&rep, fmt.Sprintf("one core.Mine (%s)", shape.name), lat, rep.Attempted, elapsed)
	rep.set("cpu_ms", cpu/float64(rep.Attempted), "ms")
	return rep, nil
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

// memDelta is the runtime's allocation and GC accounting between two
// points.
type memDelta struct {
	mallocs, bytes, gcs uint64
	pauseNs             uint64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func (d *memDelta) add(before, after runtime.MemStats) {
	d.mallocs += after.Mallocs - before.Mallocs
	d.bytes += after.TotalAlloc - before.TotalAlloc
	d.gcs += uint64(after.NumGC - before.NumGC)
	d.pauseNs += after.PauseTotalNs - before.PauseTotalNs
}

// runtimeMetrics reports allocation and GC cost per mine, and the
// process's peak RSS.
func runtimeMetrics(rep *report, d memDelta, mines int) error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	rep.set("runtime.peak_rss_mb", rss, "MB")
	n := float64(mines)
	rep.set("runtime.allocs_per_mine", ratio(float64(d.mallocs), n), "count")
	rep.set("runtime.alloc_mb_per_mine", ratio(float64(d.bytes)/(1<<20), n), "MB")
	rep.set("runtime.gc_cycles_per_mine", ratio(float64(d.gcs), n), "count")
	rep.set("runtime.gc_pause_ms", ratio(float64(d.pauseNs)/1e6, n), "ms")
	return nil
}

// cpuMs is the process's user plus system CPU time so far, in
// milliseconds. Time the host steals from the virtual CPU is not in it.
func cpuMs() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for a bad "who" or pointer
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
}

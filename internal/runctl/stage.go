package runctl

import (
	"time"

	"graphsig/internal/obs"
)

// StageSpan times one execution of one pipeline stage and meters its
// wall time, its completed work units, and whether it ended completed
// or degraded. Spans are the only clock of a mine: the pipeline reads
// Result.Profile from the durations End and Fail return, so the
// profile, /metrics, the CLI -stats table and benchjson report one
// measurement. Spans are also the producer side of the per-stage
// invariant the test suite locks down:
//
//	started_total == completed_total + degraded_total
//
// Every StartStage increments started exactly once, and the span's
// first End or Fail increments exactly one of the other two (later
// calls are no-ops), so the books balance at every quiescent point —
// including mid-run trips, where a stage that began under a live
// controller ends under a stopped one and books itself degraded.
//
// A span is a value: StartStage times whether or not the run is
// metered (an unmetered run books into no-op obs handles), and the zero
// span is a no-op whose End and Fail return 0.
type StageSpan struct {
	ctl   *Controller
	stage Stage
	start time.Time
	done  bool
}

// StartStage opens a span for stage, incrementing its started counter
// when the run is metered. Spans are goroutine-local, like
// Checkpoints: do not share one across goroutines.
func (c *Controller) StartStage(stage Stage) StageSpan {
	c.Metrics().Counter(obs.MStageStarted, "stage", string(stage)).Inc()
	return StageSpan{ctl: c, stage: stage, start: time.Now()}
}

// End closes the span with units of completed work and returns its
// duration. The outcome is derived from the shared run state: if the
// run has a stop cause the stage is booked degraded (it ran under — or
// into — a trip), otherwise completed. Duration and units are recorded
// either way; units of a degraded stage are the work that did finish,
// mirroring StageReport.Completed. Only the first End or Fail counts;
// later calls return 0.
func (s *StageSpan) End(units int64) time.Duration {
	return s.close(units, ReasonOf(s.ctl.Err()))
}

// Fail closes the span explicitly degraded with the given reason and
// returns its duration — for failures that do not stop the whole run,
// like an isolated per-group worker panic, which Controller.Recovered
// records without setting the shared stop cause.
func (s *StageSpan) Fail(reason Reason, units int64) time.Duration {
	return s.close(units, reason)
}

// close books the span's duration, units, and outcome exactly once.
func (s *StageSpan) close(units int64, degraded Reason) time.Duration {
	if s.done || s.start.IsZero() {
		return 0
	}
	s.done = true
	d := time.Since(s.start)
	m := s.ctl.Metrics()
	st := string(s.stage)
	m.Histogram(obs.MStageDuration, obs.DefBuckets, "stage", st).ObserveDuration(d)
	m.Counter(obs.MStageUnits, "stage", st).Add(units)
	if degraded != "" {
		m.Counter(obs.MStageDegraded, "stage", st).Inc()
	} else {
		m.Counter(obs.MStageCompleted, "stage", st).Inc()
	}
	return d
}

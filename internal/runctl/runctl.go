// Package runctl is the shared run controller of the mining pipeline:
// one object carrying cancellation (Controller.Cancel), a wall-clock
// deadline, per-stage work budgets, and a degradation report that
// records which stage was cut short, why, and how much work it
// completed.
//
// Subgraph mining is exponential in the worst case — the paper's own
// baselines "did not finish in >10 hours" — so every stage must be
// interruptible and must degrade to a valid partial result. A
// Controller is the only way to stop or bound a miner: fsg, gspan,
// fvmine and leap take one as Options.Ctl (nil = unbounded) and observe
// one checkpoint primitive:
//
//	ctl := runctl.New(runctl.Options{Deadline: d})
//	cp := ctl.Checkpoint(runctl.StageFVMine)
//	defer cp.Flush()
//	for ... {
//	    if err := cp.Step(); err != nil { return partial(err) }
//	}
//
// Step is amortized: it bumps a goroutine-local counter and consults the
// shared state (stop cause, deadline, budget, test hook) only every
// CheckInterval steps, so the hot loops pay one increment per step. A
// Checkpoint is goroutine-local; the Controller behind it is shared and
// safe for concurrent use. All Controller and Checkpoint methods are
// nil-receiver safe, so unconstrained runs pass nil and pay nothing.
//
// Controller.FanOut is the pipeline's one bounded pool: every parallel
// stage runs its items on it, and it stops handing out items once the
// controller has stopped.
package runctl

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"graphsig/internal/obs"
)

// Reason classifies why a run was cut short.
type Reason string

const (
	// ReasonDeadline: the wall-clock deadline passed.
	ReasonDeadline Reason = "deadline"
	// ReasonBudget: a stage exhausted its work budget.
	ReasonBudget Reason = "budget"
	// ReasonCancel: the run was canceled (Controller.Cancel on a client
	// disconnect, signal or job cancel, or the fault-injection hook).
	ReasonCancel Reason = "cancel"
	// ReasonPanic: a worker goroutine panicked; the panic was isolated
	// into a stage report instead of crashing the process.
	ReasonPanic Reason = "panic"
)

// Stage names the pipeline stages that observe the controller.
type Stage string

const (
	// StageFeatures is the feature-set construction over the database
	// (§II-B: top atoms plus their pairwise edge types).
	StageFeatures Stage = "features"
	// StageRWR is the region-to-vector transform (Alg 2 lines 3-4).
	StageRWR Stage = "rwr"
	// StageFVMine is closed sub-feature-vector mining (Alg 1).
	StageFVMine Stage = "fvmine"
	// StageGSpan is pattern-growth frequent-subgraph mining.
	StageGSpan Stage = "gspan"
	// StageFSG is apriori-style frequent-subgraph mining.
	StageFSG Stage = "fsg"
	// StageLEAP is discriminative pattern mining.
	StageLEAP Stage = "leap"
	// StageGroup is GraphSig's Phase 3 as a whole (Alg 2 lines 8-13):
	// cutting the radius-bounded windows around each vector's
	// supporting nodes, mining every group and merging the patterns. It
	// is one span per mine, so its duration is Phase 3's wall time.
	StageGroup Stage = "group"
	// StageGroupMine is GraphSig's per-group maximal FSM phase, one span
	// per mined group: summed, Phase 3's busy time.
	StageGroupMine Stage = "group-mine"
	// StageVF2 is (sub)graph isomorphism search.
	StageVF2 Stage = "vf2"
	// StageVerify is GraphSig's final graph-space support verification.
	StageVerify Stage = "verify"
)

// DefaultCheckInterval is how many local steps a Checkpoint takes
// between consultations of the shared state. 64 keeps the per-step cost
// to one integer increment while bounding deadline overshoot to 64
// units of the stage's cheapest operation.
const DefaultCheckInterval = 64

// Budgets bounds the work each stage family may perform across the
// whole run (zero = unbounded). Budgets are shared: two goroutines
// mining FVMine label groups draw from the same FVMineStates pool.
type Budgets struct {
	// FVMineStates caps FVMine recursion states.
	FVMineStates int64
	// MinerSteps caps frequent-subgraph mining work: gSpan search states
	// plus FSG candidates and embeddings (and LEAP scoring steps,
	// including the isomorphism checks LEAP runs for support counting).
	MinerSteps int64
	// VF2Nodes caps isomorphism search-tree nodes spent on graph-space
	// support verification and query-time search. Mining-internal
	// isomorphism work charges MinerSteps instead, so a VF2 budget trip
	// always lands in the verification phase — a deterministic point in
	// the pipeline regardless of Config.Parallelism.
	VF2Nodes int64
}

// Options configures a Controller. The zero value is a controller with
// no constraints (useful as a pure degradation collector).
type Options struct {
	// Deadline aborts the run when passed (zero = none).
	Deadline time.Time
	// Budgets bounds per-stage work (zero fields = unbounded).
	Budgets Budgets
	// CheckInterval overrides DefaultCheckInterval (<=0 = default).
	CheckInterval int
	// Hook, when non-nil, is the fault-injection test hook: it is called
	// at every amortized checkpoint with the 1-based checkpoint ordinal
	// and trips cancellation by returning true.
	Hook func(check int64) bool
	// Metrics, when non-nil, receives the run's operational metrics:
	// per-stage span counters and duration histograms (StartStage), the
	// exactly-once degradation counter, and the isolated-panic counter.
	// Nil disables metering with no per-step cost.
	Metrics *obs.Registry
	// CheckpointSink, when non-nil, receives the resumable snapshot
	// parts the pipeline emits at its durable progress boundaries (in
	// core.Mine, each time a batch of vector groups has finished), each
	// carrying only the progress since the previous one. The owner keeps
	// every part — the jobs layer appends each to its write-ahead journal
	// — so a killed process can restart from the chain instead of from
	// zero. Parts arrive one at a time, from whichever pipeline worker
	// finished the batch. The payload is opaque to runctl; core owns its
	// encoding. Pipelines only build snapshots when a sink is installed,
	// so unattended runs pay nothing.
	CheckpointSink func(payload []byte)
}

// StopError is the structured cause a checkpoint returns once the run
// is cut short. Every later checkpoint returns the same first cause.
type StopError struct {
	Stage  Stage
	Reason Reason
	Detail string
}

func (e *StopError) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("runctl: %s stopped: %s", e.Stage, e.Reason)
	}
	return fmt.Sprintf("runctl: %s stopped: %s (%s)", e.Stage, e.Reason, e.Detail)
}

// AsStop unwraps err into a *StopError when it is one.
func AsStop(err error) (*StopError, bool) {
	se, ok := err.(*StopError)
	return se, ok
}

// ReasonOf extracts the stop reason from err ("" for nil or foreign
// errors).
func ReasonOf(err error) Reason {
	if se, ok := err.(*StopError); ok {
		return se.Reason
	}
	return ""
}

// StageReport records one stage's partial completion or failure.
type StageReport struct {
	Stage  Stage  `json:"stage"`
	Reason Reason `json:"reason,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Completed is the work the stage finished before stopping, in the
	// stage's own units (states, candidates, groups, graphs).
	Completed int64 `json:"completed,omitempty"`
	// Planned is the total work the stage intended (0 = unknown).
	Planned int64 `json:"planned,omitempty"`
	// Err carries the panic message and truncated stack for panic
	// reports.
	Err string `json:"err,omitempty"`
}

// Degradation is the trust contract of a partial result: which stage
// stopped first and why, plus per-stage reports of what completed.
// Truncated false means the result is complete.
type Degradation struct {
	Truncated bool          `json:"truncated"`
	Reason    Reason        `json:"reason,omitempty"`
	Stage     Stage         `json:"stage,omitempty"`
	Detail    string        `json:"detail,omitempty"`
	Stages    []StageReport `json:"stages,omitempty"`
}

// String renders the report as one human-readable line.
func (d Degradation) String() string {
	if !d.Truncated {
		return "complete"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "truncated")
	if d.Stage != "" {
		fmt.Fprintf(&b, " at %s", d.Stage)
	}
	if d.Reason != "" {
		fmt.Fprintf(&b, " (%s)", d.Reason)
	}
	if d.Detail != "" {
		fmt.Fprintf(&b, ": %s", d.Detail)
	}
	for _, s := range d.Stages {
		fmt.Fprintf(&b, "; %s", s.Stage)
		if s.Reason != "" {
			fmt.Fprintf(&b, " %s", s.Reason)
		}
		if s.Planned > 0 {
			fmt.Fprintf(&b, " %d/%d done", s.Completed, s.Planned)
		} else if s.Completed > 0 {
			fmt.Fprintf(&b, " %d done", s.Completed)
		}
		if s.Detail != "" {
			fmt.Fprintf(&b, " [%s]", s.Detail)
		}
	}
	return b.String()
}

// Controller is the shared run state. Create one per mining run with
// New and derive one Checkpoint per goroutine per stage. A nil
// *Controller is valid and never stops anything.
type Controller struct {
	deadline time.Time
	budgets  Budgets
	interval int64
	hook     func(int64) bool
	metrics  *obs.Registry
	sink     func([]byte)

	checks atomic.Int64
	cause  atomic.Pointer[StopError]

	spentFV    atomic.Int64
	spentMiner atomic.Int64
	spentVF2   atomic.Int64

	mu     sync.Mutex
	stages []StageReport
}

// New returns a Controller for opt.
func New(opt Options) *Controller {
	interval := int64(opt.CheckInterval)
	if interval <= 0 {
		interval = DefaultCheckInterval
	}
	return &Controller{
		deadline: opt.Deadline,
		budgets:  opt.Budgets,
		interval: interval,
		hook:     opt.Hook,
		metrics:  opt.Metrics,
		sink:     opt.CheckpointSink,
	}
}

// WantsCheckpoints reports whether a checkpoint sink is installed, so
// pipelines can skip building snapshots nobody will persist. False for
// a nil controller.
func (c *Controller) WantsCheckpoints() bool {
	return c != nil && c.sink != nil
}

// EmitCheckpoint hands one resumable snapshot to the checkpoint sink.
// A nil controller or absent sink drops the payload; a panicking sink
// is contained here (persistence failure must degrade durability, not
// the mine).
func (c *Controller) EmitCheckpoint(payload []byte) {
	if c == nil || c.sink == nil {
		return
	}
	defer func() {
		if r := recover(); r != nil {
			c.Recovered("checkpoint", "checkpoint sink", r)
		}
	}()
	c.sink(payload)
	c.metrics.Counter(obs.MCheckpointsEmitted).Inc()
}

// Metrics returns the controller's metrics registry (nil when the run
// is unmetered, including for a nil controller).
func (c *Controller) Metrics() *obs.Registry {
	if c == nil {
		return nil
	}
	return c.metrics
}

// Err returns the stop cause once the run is cut short, else nil.
func (c *Controller) Err() error {
	if c == nil {
		return nil
	}
	if e := c.cause.Load(); e != nil {
		return e
	}
	return nil
}

// Stopped reports whether the run has been cut short.
func (c *Controller) Stopped() bool { return c.Err() != nil }

// fail records the first stop cause; later causes are dropped and the
// winner returned, so every checkpoint reports one consistent error.
// The CAS winner — and only the winner — counts the degradation event,
// so MDegradations increments exactly once per cut-short run no matter
// how many goroutines observe the trip.
func (c *Controller) fail(stage Stage, reason Reason, detail string) *StopError {
	e := &StopError{Stage: stage, Reason: reason, Detail: detail}
	if c.cause.CompareAndSwap(nil, e) {
		c.metrics.Counter(obs.MDegradations, "reason", string(reason)).Inc()
		return e
	}
	return c.cause.Load()
}

// Cancel administratively stops the run: the next consultation of
// every live checkpoint returns a cancel StopError, and the pipeline
// unwinds into its partial result. Owners that decide to cancel after
// the fact (job orchestration, admin endpoints, a request's context
// watched by its handler) call it. The first stop cause wins; Cancel
// after another stop is a no-op.
func (c *Controller) Cancel(detail string) {
	if c == nil {
		return
	}
	c.fail("", ReasonCancel, detail)
}

// RecordStage appends a stage report to the degradation record.
func (c *Controller) RecordStage(r StageReport) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.stages = append(c.stages, r)
	c.mu.Unlock()
}

// RecordStop is RecordStage specialized to "this stage stopped at the
// shared cause after completing this much of its planned work".
func (c *Controller) RecordStop(stage Stage, completed, planned int64, detail string) {
	if c == nil {
		return
	}
	r := StageReport{Stage: stage, Completed: completed, Planned: planned, Detail: detail}
	if e := c.cause.Load(); e != nil {
		r.Reason = e.Reason
	}
	c.RecordStage(r)
}

// maxPanicStack bounds the stack captured into a panic stage report.
const maxPanicStack = 4096

// Recovered converts a recovered panic value into a structured stage
// report. Use it in worker goroutines:
//
//	defer func() {
//	    if r := recover(); r != nil { ctl.Recovered(stage, what, r) }
//	}()
//
// The panic does not stop the rest of the run; it degrades the one
// worker's unit of work and is surfaced in the report.
func (c *Controller) Recovered(stage Stage, what string, r any) {
	if c == nil {
		return
	}
	c.metrics.Counter(obs.MPanics, "stage", string(stage)).Inc()
	stack := debug.Stack()
	if len(stack) > maxPanicStack {
		stack = stack[:maxPanicStack]
	}
	c.RecordStage(StageReport{
		Stage:  stage,
		Reason: ReasonPanic,
		Detail: what,
		Err:    fmt.Sprintf("panic: %v\n%s", r, stack),
	})
}

// Report assembles the degradation record. Safe to call while workers
// are still running (it snapshots), but normally called once at the
// end of a run.
func (c *Controller) Report() Degradation {
	var d Degradation
	if c == nil {
		return d
	}
	if e := c.cause.Load(); e != nil {
		d.Truncated = true
		d.Stage, d.Reason, d.Detail = e.Stage, e.Reason, e.Detail
	}
	c.mu.Lock()
	d.Stages = append([]StageReport(nil), c.stages...)
	c.mu.Unlock()
	for _, s := range d.Stages {
		if s.Reason == ReasonPanic {
			d.Truncated = true
			if d.Reason == "" {
				d.Reason, d.Stage = ReasonPanic, s.Stage
			}
		}
	}
	return d
}

// Spent is a live snapshot of the controller's shared work counters —
// the per-stage-family spend the budgets draw against plus the number
// of amortized checkpoint consultations. Job orchestration reads it to
// report progress of a running mine without touching the pipeline.
type Spent struct {
	Checks       int64 `json:"checks"`
	FVMineStates int64 `json:"fvmineStates,omitempty"`
	MinerSteps   int64 `json:"minerSteps,omitempty"`
	VF2Nodes     int64 `json:"vf2Nodes,omitempty"`
}

// Spent snapshots the shared work counters. Safe to call concurrently
// with running checkpoints; a nil controller reports zeros. Counters
// are flushed every CheckInterval steps and when a checkpoint's owner
// is done with it (Flush), so the snapshot trails the true spend by at
// most one interval per live checkpoint.
func (c *Controller) Spent() Spent {
	if c == nil {
		return Spent{}
	}
	return Spent{
		Checks:       c.checks.Load(),
		FVMineStates: c.spentFV.Load(),
		MinerSteps:   c.spentMiner.Load(),
		VF2Nodes:     c.spentVF2.Load(),
	}
}

// budgetFor maps a stage onto its shared spend counter and limit.
func (c *Controller) budgetFor(stage Stage) (*atomic.Int64, int64) {
	switch stage {
	case StageFVMine:
		return &c.spentFV, c.budgets.FVMineStates
	case StageGSpan, StageFSG, StageLEAP, StageGroupMine:
		return &c.spentMiner, c.budgets.MinerSteps
	case StageVF2, StageVerify:
		return &c.spentVF2, c.budgets.VF2Nodes
	}
	return nil, 0
}

// Checkpoint derives a stepper for one goroutine working one stage.
// Checkpoints from the same controller share the stop cause, deadline
// and stage budgets, but each keeps its own local step counter — do
// not share one Checkpoint across goroutines.
func (c *Controller) Checkpoint(stage Stage) *Checkpoint {
	if c == nil {
		return nil
	}
	cp := &Checkpoint{ctl: c, stage: stage, interval: c.interval}
	cp.spent, cp.limit = c.budgetFor(stage)
	return cp
}

// Checkpoint is the amortized per-goroutine stepper. A nil *Checkpoint
// is valid: Step and Force return nil forever.
type Checkpoint struct {
	ctl      *Controller
	stage    Stage
	spent    *atomic.Int64
	limit    int64
	interval int64
	// pending counts local steps not yet flushed to the shared counter.
	pending int64
}

// Step counts one unit of work and, every interval steps, consults the
// shared state. It returns the run's stop cause once tripped; the
// caller must unwind and return its partial result.
func (cp *Checkpoint) Step() error {
	if cp == nil {
		return nil
	}
	cp.pending++
	if cp.pending < cp.interval {
		return nil
	}
	return cp.sync()
}

// Force counts one unit of work and consults the shared state
// immediately. Use it for loops whose single iteration is expensive
// enough that amortization would let the deadline overshoot (e.g. one
// isomorphism test over a whole database per step).
func (cp *Checkpoint) Force() error {
	if cp == nil {
		return nil
	}
	cp.pending++
	return cp.sync()
}

// Metrics returns the owning controller's metrics registry, so library
// code handed only a checkpoint (fsg's and gspan's closed-prune
// counters) can still meter itself. Nil for a nil or unmetered
// checkpoint.
func (cp *Checkpoint) Metrics() *obs.Registry {
	if cp == nil {
		return nil
	}
	return cp.ctl.Metrics()
}

// Flush adds the steps not yet flushed to the shared stage counter. It
// consults neither the stop cause, the hook, the deadline nor the
// budget, and counts no check, so it moves no checkpoint ordinal. The
// owner of a checkpoint calls it when it is done stepping, so
// Controller.Spent counts every step taken.
func (cp *Checkpoint) Flush() {
	if cp == nil {
		return
	}
	if cp.spent != nil {
		cp.spent.Add(cp.pending)
	}
	cp.pending = 0
}

// sync flushes pending steps into the shared stage counter and checks
// hook, deadline, and budget, in that order.
func (cp *Checkpoint) sync() error {
	c := cp.ctl
	if e := c.cause.Load(); e != nil {
		return e
	}
	n := c.checks.Add(1)
	if c.hook != nil && c.hook(n) {
		return c.fail(cp.stage, ReasonCancel, fmt.Sprintf("fault hook tripped at checkpoint %d", n))
	}
	if !c.deadline.IsZero() && time.Now().After(c.deadline) {
		return c.fail(cp.stage, ReasonDeadline, "")
	}
	add := cp.pending
	cp.pending = 0
	if cp.spent != nil {
		total := cp.spent.Add(add)
		if cp.limit > 0 && total > cp.limit {
			return c.fail(cp.stage, ReasonBudget,
				fmt.Sprintf("%d steps spent of %d budgeted", total, cp.limit))
		}
	}
	return nil
}

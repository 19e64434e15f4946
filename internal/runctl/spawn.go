package runctl

import (
	"log"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Spawn starts fn on its own goroutine behind a panic barrier. It is
// the only sanctioned way to launch a goroutine in the long-lived
// orchestration layers (internal/jobs, internal/server — enforced by
// graphsiglint's safego analyzer): an unrecovered panic there would
// kill the whole process or silently shrink a worker pool, whereas a
// recovered one becomes a report the owner can log and count.
//
// name labels the goroutine in recovery reports. onPanic, when non-nil,
// receives the recovered value and the panicking goroutine's stack; a
// nil onPanic falls back to log.Printf. onPanic runs on the dying
// goroutine after fn's own deferred functions, so WaitGroup.Done and
// similar cleanups deferred inside fn have already executed.
//
// Mining-pipeline fan-outs go through Controller.FanOut instead, and
// their per-index recover handlers (Controller.Recovered) degrade a
// single stage; Spawn is for infrastructure goroutines that have no
// stage to degrade.
func Spawn(name string, onPanic func(name string, r any, stack []byte), fn func()) {
	go func() {
		defer func() {
			if r := recover(); r != nil {
				stack := debug.Stack()
				if onPanic != nil {
					onPanic(name, r, stack)
					return
				}
				log.Printf("runctl: %s panicked: %v\n%s", name, r, stack)
			}
		}()
		fn()
	}()
}

// FanOut is the mining pipeline's one bounded pool. It runs the
// indices [0, n) on at most workers goroutines (workers <= 0 means
// GOMAXPROCS) and returns how many ran. Each goroutine calls worker
// once, building its goroutine-local state there (a Checkpoint, say),
// and then runs the returned function on the indices it claims, in
// ascending order. Claiming stops once the indices run out, the
// controller has stopped (a nil controller never stops) or a call has
// returned false. A claimed index always runs, so the indices that ran
// are exactly [0, ran). FanOut returns when every goroutine has.
//
// FanOut recovers nothing: a call that can panic keeps its own barrier
// (Controller.Recovered), so a panic degrades one index, not the pool.
func (c *Controller) FanOut(n, workers int, worker func() func(i int) bool) (ran int) {
	if n <= 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var halted atomic.Bool
	var wg sync.WaitGroup
	for w := min(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := worker()
			for !halted.Load() && !c.Stopped() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !run(i) {
					halted.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return min(int(next.Load()), n)
}

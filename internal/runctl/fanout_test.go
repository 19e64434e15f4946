package runctl

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fanOutTrace runs FanOut and records, per index, how many times it ran
// and, per goroutine, the indices that goroutine claimed in order. Each
// goroutine's trace slice is its goroutine-local state: it is appended
// to without a lock, so -race fails the test if FanOut ever shared one
// worker's state across goroutines.
type fanOutTrace struct {
	runs   []atomic.Int32
	setups atomic.Int32
	mu     sync.Mutex
	traces [][]int
}

func runTraced(ctl *Controller, n, workers int, body func(i int) bool) (*fanOutTrace, int) {
	tr := &fanOutTrace{runs: make([]atomic.Int32, max(n, 0))}
	ran := ctl.FanOut(n, workers, func() func(int) bool {
		tr.setups.Add(1)
		var mine []int
		tr.mu.Lock()
		slot := len(tr.traces)
		tr.traces = append(tr.traces, nil)
		tr.mu.Unlock()
		return func(i int) bool {
			mine = append(mine, i)
			tr.mu.Lock()
			tr.traces[slot] = mine
			tr.mu.Unlock()
			tr.runs[i].Add(1)
			return body(i)
		}
	})
	return tr, ran
}

// checkPrefix asserts the FanOut contract every outcome shares: the
// indices that ran are exactly [0, ran), each once, and every goroutine
// claimed its indices in ascending order.
func (tr *fanOutTrace) checkPrefix(t *testing.T, ran int) {
	t.Helper()
	for i := range tr.runs {
		want := int32(0)
		if i < ran {
			want = 1
		}
		if got := tr.runs[i].Load(); got != want {
			t.Fatalf("index %d ran %d times, want %d (returned prefix %d)", i, got, want, ran)
		}
	}
	for g, trace := range tr.traces {
		for k := 1; k < len(trace); k++ {
			if trace[k] <= trace[k-1] {
				t.Fatalf("goroutine %d claimed %v, not ascending", g, trace)
			}
		}
	}
}

func TestFanOutRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 500} {
		tr, ran := runTraced(nil, 200, workers, func(int) bool { return true })
		if ran != 200 {
			t.Fatalf("workers=%d: ran %d, want 200", workers, ran)
		}
		tr.checkPrefix(t, ran)
		if got, want := int(tr.setups.Load()), min(workers, 200); got != want {
			t.Errorf("workers=%d: setup ran %d times, want once per goroutine (%d)", workers, got, want)
		}
	}
}

// TestFanOutFalseHaltsClaims: a call returning false stops the pool
// short of n. With one goroutine nothing after that call runs; with
// several, the calls after the halting index are slowed down so a pool
// that ignored the halt would run all n.
func TestFanOutFalseHaltsClaims(t *testing.T) {
	const n, stopAt = 1000, 10
	tr, ran := runTraced(nil, n, 1, func(i int) bool { return i != stopAt })
	tr.checkPrefix(t, ran)
	if ran != stopAt+1 {
		t.Fatalf("one worker: ran %d, want %d", ran, stopAt+1)
	}
	tr, ran = runTraced(nil, n, 4, func(i int) bool {
		if i > stopAt {
			time.Sleep(200 * time.Microsecond)
		}
		return i != stopAt
	})
	tr.checkPrefix(t, ran)
	if ran <= stopAt || ran == n {
		t.Fatalf("four workers: ran %d, want more than %d and fewer than %d", ran, stopAt, n)
	}
}

// TestFanOutControllerStopHaltsClaims: once the controller has stopped,
// no goroutine claims another index. The goroutines other than the one
// that stopped it may each still run the one index they claimed before
// the stop became visible, and no more. Calls above stopAt wait for the
// stop, so however the goroutine running stopAt is scheduled, the others
// cannot drain the indices behind it first.
func TestFanOutControllerStopHaltsClaims(t *testing.T) {
	const n, workers, stopAt = 1000, 4, 10
	ctl := New(Options{})
	var stopped atomic.Bool
	var startedAfter atomic.Int32
	stop := make(chan struct{})
	tr, ran := runTraced(ctl, n, workers, func(i int) bool {
		if i > stopAt {
			<-stop
		}
		if stopped.Load() {
			startedAfter.Add(1)
		}
		if i == stopAt {
			ctl.Cancel("test")
			stopped.Store(true)
			close(stop)
		}
		return true
	})
	tr.checkPrefix(t, ran)
	if ran <= stopAt || ran > stopAt+workers {
		t.Fatalf("ran %d, want more than %d and at most %d", ran, stopAt, stopAt+workers)
	}
	if got := startedAfter.Load(); got > workers-1 {
		t.Fatalf("%d calls started after the stop, want at most %d", got, workers-1)
	}

	// A controller stopped before the fan-out runs nothing.
	tr, ran = runTraced(ctl, n, workers, func(int) bool { return true })
	tr.checkPrefix(t, ran)
	if ran != 0 {
		t.Fatalf("stopped controller: ran %d, want 0", ran)
	}
}

func TestFanOutEdgeCases(t *testing.T) {
	tr, ran := runTraced(New(Options{}), 0, 4, func(int) bool { return true })
	if ran != 0 || tr.setups.Load() != 0 {
		t.Errorf("n=0: ran %d with %d setups, want 0 and 0", ran, tr.setups.Load())
	}
	if ran := (*Controller)(nil).FanOut(-3, 4, func() func(int) bool {
		t.Error("setup ran for negative n")
		return nil
	}); ran != 0 {
		t.Errorf("n<0: ran %d, want 0", ran)
	}
	for _, workers := range []int{0, -2} {
		tr, ran := runTraced(nil, 50, workers, func(int) bool { return true })
		if ran != 50 {
			t.Fatalf("workers=%d: ran %d, want 50", workers, ran)
		}
		tr.checkPrefix(t, ran)
		if got, want := int(tr.setups.Load()), min(runtime.GOMAXPROCS(0), 50); got != want {
			t.Errorf("workers=%d: %d goroutines, want GOMAXPROCS (%d)", workers, got, want)
		}
	}
}

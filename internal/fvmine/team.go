package fvmine

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"graphsig/internal/feature"
	"graphsig/internal/runctl"
	"graphsig/internal/sigmodel"
)

// Team lets the label searches of one pool share their work: a worker
// with no label group left calls Help and runs subtrees that running
// searches give it. A search gives away a subtree only while a helper
// waits, so a busy pool pays one atomic load per branch.
//
// Sibling subtrees share nothing: a state's duplicate-state test reads
// only the state itself (the prefix-preserving rule of LCM), so any
// subtree can be searched on its own. Its output joins the giver's
// where the subtree would have been searched, so a shared search
// returns exactly what a serial one does, in the same order.
//
// A nil *Team shares nothing: its Mine is the serial Mine, and Done and
// Help return at once.
type Team struct {
	mu   sync.Mutex
	wake *sync.Cond
	// want is the number of goroutines waiting for a subtree, less the
	// subtrees queued or claimed for them. Searches read it without the
	// lock and claim a waiter by decrementing it.
	want  atomic.Int32
	queue []*subtree
	// searches counts the label searches not yet Done.
	searches int
}

// NewTeam returns a team for searches label searches. Each of them must
// call Done once it returns, whether it ran Mine or not.
func NewTeam(searches int) *Team {
	t := &Team{searches: searches}
	t.wake = sync.NewCond(&t.mu)
	return t
}

// Done records that one label search has returned.
func (t *Team) Done() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.searches--
	t.wake.Broadcast()
	t.mu.Unlock()
}

// Help runs subtrees given away by the team's searches until every
// search is Done.
func (t *Team) Help() {
	if t == nil {
		return
	}
	t.work(nil)
}

// Mine is Mine with the search's subtrees open to the team's idle
// helpers. It returns once every subtree given away has finished; a
// panic in one of them is raised again here, so it degrades this
// search alone.
func (t *Team) Mine(vectors []feature.Vector, opt Options) Result {
	if opt.MinSupport < 1 {
		opt.MinSupport = 1
	}
	if len(vectors) == 0 || len(vectors) < opt.MinSupport {
		return Result{}
	}
	model := opt.Model
	if model == nil {
		model = sigmodel.New(vectors)
	}
	s := newSearcher(vectors, model, opt.MinSupport, opt.Ctl.Checkpoint(runctl.StageFVMine))
	defer s.cp.Flush()
	// Un-amortized check up front so an already-expired deadline or
	// canceled context truncates before any work.
	if err := s.cp.Force(); err != nil {
		return Result{Truncated: true, StopReason: runctl.ReasonOf(err)}
	}
	m := newMiner(s, opt)
	if t != nil {
		s.split = &split{team: t, kernel: s.kernel, opt: opt}
	}
	s.run()
	if sp := s.split; sp != nil {
		t.work(sp)
		if sp.panicked != nil {
			panic(sp.panicked)
		}
	}
	var res Result
	m.join(&res)
	return res
}

// split is one label search whose subtrees the team may take.
type split struct {
	team   *Team
	kernel *kernel
	opt    Options
	// Guarded by team.mu: subtrees given away and not yet finished, and
	// the first panic one of them raised.
	pending  int
	panicked error
}

// subtree is one state given away, with the search below it.
type subtree struct {
	sp   *split
	root *frame
	b    int    // the first feature position to branch on
	m    *miner // the search, once run
	err  error  // a panic the search raised
}

// donate claims a waiting helper and gives it one unexplored state: the
// first surviving branch after the current one at the shallowest depth
// that has one, or else child, the branch on i at depth d about to be
// searched. The shallowest branch is likely the largest subtree. A
// branch taken from a shallower depth joins the output when that
// depth's loop reaches it. donate reports whether child was given, in
// which case frames[d+1] is a new frame.
func (s *searcher) donate(d int, child *frame, i int) bool {
	t := s.split.team
	w := t.want.Load()
	if w <= 0 || !t.want.CompareAndSwap(w, w-1) {
		return false
	}
	st := &subtree{sp: s.split, root: newFrame(len(s.cols), s.words)}
	for e := 0; e < d; e++ {
		f := s.frames[e]
		for p := max(f.pos+1, f.ahead); p < len(f.vary); p++ {
			f.ahead = p + 1
			if s.branch(st.root, f, f.vary[p]) {
				st.b = f.vary[p]
				f.gifts = append(f.gifts, gift{pos: p, t: st})
				t.push(st)
				return false
			}
		}
	}
	// child goes with the gift; the fresh frame becomes depth d+1's.
	st.root, s.frames[d+1] = child, st.root
	st.b = i
	t.push(st)
	s.placed(st)
	return true
}

// push queues a claimed subtree and wakes the waiting goroutines.
func (t *Team) push(st *subtree) {
	t.mu.Lock()
	t.queue = append(t.queue, st)
	st.sp.pending++
	t.wake.Broadcast()
	t.mu.Unlock()
}

// work runs queued subtrees, waiting for more between them, until sp
// has no subtree left or, for a nil sp, until every search is Done.
func (t *Team) work(sp *split) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for sp == nil && t.searches > 0 || sp != nil && sp.pending > 0 {
		if len(t.queue) == 0 {
			t.want.Add(1)
			t.wake.Wait()
			t.want.Add(-1)
			continue
		}
		st := t.queue[len(t.queue)-1]
		t.queue = t.queue[:len(t.queue)-1]
		t.want.Add(1) // the claim that queued st is spent
		t.mu.Unlock()
		st.run()
		t.mu.Lock()
		if st.err != nil && st.sp.panicked == nil {
			st.sp.panicked = st.err
		}
		st.sp.pending--
		t.wake.Broadcast()
	}
}

// run searches the subtree on the calling goroutine, with a checkpoint
// of its own. A panic is kept in st.err, with the stack it was raised
// on, for the giving search to raise.
func (st *subtree) run() {
	defer func() {
		if r := recover(); r != nil {
			st.err = fmt.Errorf("fvmine: donated subtree: %v\n%s", r, debug.Stack())
		}
	}()
	sp := st.sp
	s := &searcher{kernel: sp.kernel, cp: sp.opt.Ctl.Checkpoint(runctl.StageFVMine), frames: []*frame{st.root}, split: sp}
	defer s.cp.Flush()
	st.m = newMiner(s, sp.opt)
	if err := sp.opt.Ctl.Err(); err != nil {
		s.stop(err)
		return
	}
	s.search(0, st.b)
}

package fvmine

import (
	"fmt"
	"runtime"
	"testing"

	"graphsig/internal/feature"
	"graphsig/internal/runctl"
	"graphsig/internal/sigmodel"
)

// mineShared mines every group on a pool of workers the way core does:
// one FanOut over the groups and, past them, one help loop per worker.
func mineShared(groups [][]feature.Vector, model *sigmodel.Model, workers int) []Result {
	team := NewTeam(len(groups))
	out := make([]Result, len(groups))
	var ctl *runctl.Controller
	ctl.FanOut(len(groups)+workers, workers, func() func(int) bool {
		return func(i int) bool {
			if i >= len(groups) {
				team.Help()
				return true
			}
			defer team.Done()
			out[i] = team.Mine(groups[i], coreOptions(len(groups[i]), model))
			return true
		}
	})
	return out
}

// mineHelped mines one group with helpers-1 helpers already waiting, so
// the search gives subtrees away from its first branch on.
func mineHelped(vecs []feature.Vector, opt Options, helpers int) Result {
	team := NewTeam(1)
	done := make(chan struct{})
	for h := 0; h < helpers-1; h++ {
		go func() { team.Help(); done <- struct{}{} }()
	}
	for team.want.Load() < int32(helpers-1) {
		runtime.Gosched()
	}
	res := team.Mine(vecs, opt)
	team.Done()
	for h := 0; h < helpers-1; h++ {
		<-done
	}
	return res
}

// sameResult reports the first difference between a shared and a
// serial mine: vectors, order, supporting sets, p-value bits and the
// states explored, summed over the subtrees.
func sameResult(got, want Result) error {
	if got.StatesExplored != want.StatesExplored {
		return fmt.Errorf("explored %d states; serial %d", got.StatesExplored, want.StatesExplored)
	}
	if got.Tails != want.Tails {
		return fmt.Errorf("evaluated %d tails; serial %d", got.Tails, want.Tails)
	}
	return sameSignificant(got.Vectors, want.Vectors)
}

// TestSplitMatchesSerial mines every MOLT-4 x400 group serially and
// with its subtrees shared, at parallelism 1, 2 and 4: both through a
// pool laid out as core lays it out and with helpers waiting before the
// search starts. The shared mines must return the serial answer bit
// for bit, and the carbon group must have given subtrees away.
func TestSplitMatchesSerial(t *testing.T) {
	groups, model := molt4Groups(400)
	serial := make([]Result, len(groups))
	largest := 0
	for gi, vecs := range groups {
		serial[gi] = Mine(vecs, coreOptions(len(vecs), model))
		if len(vecs) > len(groups[largest]) {
			largest = gi
		}
	}
	for _, p := range []int{1, 2, 4} {
		for gi, res := range mineShared(groups, model, p) {
			if err := sameResult(res, serial[gi]); err != nil {
				t.Errorf("pool of %d, group %d (%d vectors): %v", p, gi, len(groups[gi]), err)
			}
		}
		for gi, vecs := range groups {
			res := mineHelped(vecs, coreOptions(len(vecs), model), p)
			if err := sameResult(res, serial[gi]); err != nil {
				t.Errorf("%d helpers, group %d (%d vectors): %v", p-1, gi, len(vecs), err)
			}
			if p == 1 && res.gifts != 0 {
				t.Errorf("group %d gave %d subtrees away with no helper", gi, res.gifts)
			}
			if p == 2 && gi == largest {
				if res.gifts == 0 {
					t.Errorf("largest group (%d vectors) gave no subtree to a waiting helper", len(vecs))
				}
				t.Logf("largest group (%d vectors, %d states): %d subtrees given away", len(vecs), res.StatesExplored, res.gifts)
			}
		}
	}
}

// TestSpentCountsEveryStep mines every MOLT-4 x400 group on one
// controller, serially and with helpers waiting for subtrees: the
// controller's FVMineStates must count every step the searches took —
// each state explored plus each search's up-front check — including
// the steps since their last amortized check when a search or a
// subtree given away returns.
func TestSpentCountsEveryStep(t *testing.T) {
	groups, model := molt4Groups(400)
	for _, helpers := range []int{1, 2} {
		ctl := runctl.New(runctl.Options{})
		steps, gifts := 0, 0
		for _, vecs := range groups {
			opt := coreOptions(len(vecs), model)
			opt.Ctl = ctl
			res := mineHelped(vecs, opt, helpers)
			steps += res.StatesExplored
			if len(vecs) >= opt.MinSupport {
				steps++ // the up-front Force
			}
			gifts += res.gifts
		}
		if helpers > 1 && gifts == 0 {
			t.Errorf("%d helpers: no subtree given away; the donated-subtree case is vacuous", helpers-1)
		}
		if got := ctl.Spent().FVMineStates; got != int64(steps) {
			t.Errorf("%d helpers: Spent().FVMineStates = %d; the searches took %d steps", helpers-1, got, steps)
		}
	}
}

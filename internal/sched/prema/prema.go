// Package prema implements the task-based PREMA comparator from the
// paper's evaluation (adapted from Choi & Rhu's predictive multi-task
// scheduler as ported to multi-slot FPGA systems).
//
// PREMA keeps the token accumulation and candidate thresholding scheme —
// tokens grow with priority and normalized performance degradation — and
// selects the *shortest* candidate (smallest estimated remaining work) to
// execute next. It shares slots among candidates but has no cross-batch
// pipelining and no preemption.
package prema

import (
	"slices"

	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// byRem pairs a candidate with its remaining-work estimate so the sort
// computes each estimate once instead of O(n log n) times.
type byRem struct {
	app *sched.App
	rem sim.Duration
}

// Scheduler is the task-based PREMA policy.
type Scheduler struct {
	pool  *sched.TokenPool
	cands []*sched.App // scratch, reused across Schedule calls
	order []byRem      // scratch, reused across Schedule calls
}

// New returns a PREMA scheduler.
func New() *Scheduler { return &Scheduler{pool: sched.NewTokenPool()} }

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "PREMA" }

// Pipelining implements sched.Scheduler: bulk processing only.
func (s *Scheduler) Pipelining() bool { return false }

// NextWake implements sched.Waker: the policy reads the clock only
// through its token pool.
func (s *Scheduler) NextWake(w sched.World) sim.Time { return s.pool.NextWake(w.Now(), w.Apps()) }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(w sched.World, why sched.Reason) {
	apps := w.Apps()
	s.pool.Accumulate(w.Now(), apps)
	free := w.FreeSlots()
	if len(free) == 0 {
		// Nothing to place. The order below only reads flags and
		// estimates into scratch slices, so it is not worth building.
		return
	}
	s.cands = sched.CandidatesInto(s.cands, apps)
	// Shortest estimated remaining work first (PREMA's selection rule).
	order := s.order[:0]
	for _, a := range s.cands {
		order = append(order, byRem{app: a, rem: a.RemainingEstimate()})
	}
	slices.SortStableFunc(order, func(x, y byRem) int {
		if x.rem != y.rem {
			if x.rem < y.rem {
				return -1
			}
			return 1
		}
		if x.app.ID < y.app.ID {
			return -1
		}
		if x.app.ID > y.app.ID {
			return 1
		}
		return 0
	})
	s.order = order
	idx := 0
	for _, c := range order {
		a := c.app
		// Re-evaluate after each configuration: prefetching a task makes
		// its successors configurable.
		for {
			if idx >= len(free) {
				return
			}
			tasks := a.ConfigurableTasks()
			if len(tasks) == 0 {
				break
			}
			if err := w.Reconfigure(free[idx], a, tasks[0]); err != nil {
				return
			}
			idx++
		}
	}
}

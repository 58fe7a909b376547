// Package baseline implements the paper's no-sharing, no-virtualization
// comparison point: one application owns the entire FPGA at a time.
//
// Applications wait in the pending queue until it is their turn; the
// active application may use every slot on the board to execute parallel
// branches of its task-graph, but no other application may run until it
// retires. There is no cross-batch pipelining and no preemption.
package baseline

import (
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// Scheduler is the no-sharing policy.
type Scheduler struct {
	active *sched.App
}

// New returns a no-sharing scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "Baseline" }

// Pipelining implements sched.Scheduler: bulk processing only.
func (s *Scheduler) Pipelining() bool { return false }

// NextWake implements sched.Waker: the policy never reads the clock,
// so only a world change can change its decision.
func (s *Scheduler) NextWake(sched.World) sim.Time { return sim.Never }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(w sched.World, why sched.Reason) {
	apps := w.Apps()
	if s.active != nil && s.active.Retired() {
		s.active = nil
	}
	if s.active == nil {
		if len(apps) == 0 {
			return
		}
		// First-come, first-served ownership of the whole board.
		s.active = apps[0]
	}
	// Configuring a task can make its successors configurable
	// (reconfiguration prefetch), so re-evaluate after each one.
	for _, slot := range w.FreeSlots() {
		tasks := s.active.ConfigurableTasks()
		if len(tasks) == 0 {
			return
		}
		if err := w.Reconfigure(slot, s.active, tasks[0]); err != nil {
			return
		}
	}
}

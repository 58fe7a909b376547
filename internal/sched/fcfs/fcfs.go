// Package fcfs implements the naive first-come, first-served sharing
// policy from the paper's evaluation: ready tasks from all pending
// applications are configured onto free slots in application arrival
// order. Applications may execute parallel branches simultaneously, but
// there is no priority awareness, no cross-batch pipelining, and no
// preemption.
package fcfs

import (
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// Scheduler is the FCFS policy.
type Scheduler struct{}

// New returns an FCFS scheduler.
func New() *Scheduler { return &Scheduler{} }

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "FCFS" }

// Pipelining implements sched.Scheduler: bulk processing only.
func (s *Scheduler) Pipelining() bool { return false }

// NextWake implements sched.Waker: the policy never reads the clock,
// so only a world change can change its decision.
func (s *Scheduler) NextWake(sched.World) sim.Time { return sim.Never }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(w sched.World, why sched.Reason) {
	free := w.FreeSlots()
	idx := 0
	for _, a := range w.Apps() {
		// Configuring a task can make its successors configurable
		// (reconfiguration prefetch), so re-evaluate until exhausted.
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

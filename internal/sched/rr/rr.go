// Package rr implements the queue-based round-robin comparator adapted
// from Coyote's scheduler (Korolija et al., OSDI 2020), ported to the
// Nimblock overlay as in the paper's evaluation.
//
// Tasks from all pending applications are issued to per-slot priority
// queues in a round-robin fashion: each newly ready task goes to the
// queue of the slot with the fewest waiting tasks. Within a queue, tasks
// are ordered by priority level (then issue order). When a slot frees,
// the head of its queue is configured. There is no pipelining and no
// preemption, and — like the original — no global rebalancing once a
// task is issued to a slot queue.
package rr

import (
	"slices"

	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// entry is one queued task.
type entry struct {
	app  *sched.App
	task int
	seq  int64
}

// Scheduler is the round-robin policy.
type Scheduler struct {
	queues [][]entry
	issued map[*sched.App][]bool // app -> task -> queued at least once
	seq    int64
	free   []bool // scratch for dispatch's free-slot lookup
}

// New returns a round-robin scheduler.
func New() *Scheduler { return &Scheduler{issued: map[*sched.App][]bool{}} }

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "RR" }

// Pipelining implements sched.Scheduler: bulk processing only.
func (s *Scheduler) Pipelining() bool { return false }

// NextWake implements sched.Waker: the policy never reads the clock,
// so only a world change can change its decision.
func (s *Scheduler) NextWake(sched.World) sim.Time { return sim.Never }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(w sched.World, why sched.Reason) {
	if s.queues == nil {
		s.queues = make([][]entry, w.NumSlots())
	}
	s.forgetRetired(w)
	s.reroute(w)
	// Dispatching a task can make its successors configurable and
	// therefore issuable; iterate to a fixpoint.
	for {
		issued := s.issue(w)
		dispatched := s.dispatch(w)
		if issued == 0 && dispatched == 0 {
			return
		}
	}
}

// forgetRetired drops the issue flags of apps that left the pending
// list. Flags are kept only for pending apps and an app leaves only by
// retiring (or being aborted), so the table outgrows the pending list
// only after a departure, and it is swept at most once per departure.
func (s *Scheduler) forgetRetired(w sched.World) {
	if len(s.issued) <= len(w.Apps()) {
		return
	}
	for a := range s.issued {
		if a.Retired() {
			delete(s.issued, a)
		}
	}
}

// reroute drains queues of slots that went offline, re-issuing their
// entries to the shortest usable queue. Without it the original
// no-rebalancing rule would strand tasks behind a dead slot forever. If
// the whole board is offline the entries stay put until a slot returns.
func (s *Scheduler) reroute(w sched.World) {
	if w.UsableSlots() == 0 {
		return
	}
	var orphans []entry
	for slot := range s.queues {
		if w.SlotUsable(slot) || len(s.queues[slot]) == 0 {
			continue
		}
		orphans = append(orphans, s.queues[slot]...)
		s.queues[slot] = nil
	}
	for _, e := range orphans {
		s.enqueue(w, e)
	}
}

// enqueue appends the entry to the shortest usable queue, keeping the
// queue ordered by priority (high first) then issue order. It reports
// false when no usable slot exists.
func (s *Scheduler) enqueue(w sched.World, e entry) bool {
	q := s.shortestQueue(w)
	if q < 0 {
		return false
	}
	s.queues[q] = append(s.queues[q], e)
	slices.SortStableFunc(s.queues[q], func(x, y entry) int {
		if x.app.Priority != y.app.Priority {
			return y.app.Priority - x.app.Priority
		}
		if x.seq < y.seq {
			return -1
		}
		if x.seq > y.seq {
			return 1
		}
		return 0
	})
	return true
}

// issue sends newly ready tasks to the shortest slot queue, returning how
// many tasks were enqueued. A task is issued at most once, ever.
func (s *Scheduler) issue(w sched.World) int {
	n := 0
	for _, a := range w.Apps() {
		tasks := a.ConfigurableTasks()
		if len(tasks) == 0 {
			continue
		}
		issued := s.issued[a]
		if issued == nil {
			issued = make([]bool, a.Graph.NumTasks())
			s.issued[a] = issued
		}
		for _, t := range tasks {
			if issued[t] {
				continue
			}
			s.seq++
			if !s.enqueue(w, entry{app: a, task: t, seq: s.seq}) {
				// Board fully offline; retry at the next opportunity.
				return n
			}
			issued[t] = true
			n++
		}
	}
	return n
}

// shortestQueue returns the usable slot whose queue holds the fewest
// waiting tasks, counting an occupied slot's running task as one waiting
// unit so issuance spreads across the board. It returns -1 when every
// slot is offline.
func (s *Scheduler) shortestQueue(w sched.World) int {
	length := func(slot int) int {
		n := len(s.queues[slot])
		if _, _, busy := w.SlotOccupant(slot); busy {
			n++
		}
		return n
	}
	best, bestLen := -1, 0
	for i := 0; i < len(s.queues); i++ {
		if !w.SlotUsable(i) {
			continue
		}
		if l := length(i); best < 0 || l < bestLen {
			best, bestLen = i, l
		}
	}
	return best
}

// dispatch configures queue heads into their slots when free, returning
// how many reconfigurations were issued.
func (s *Scheduler) dispatch(w sched.World) int {
	if s.free == nil {
		s.free = make([]bool, len(s.queues))
	}
	free := s.free
	for i := range free {
		free[i] = false
	}
	for _, f := range w.FreeSlots() {
		free[f] = true
	}
	n := 0
	for slot := range s.queues {
		if !free[slot] {
			continue
		}
		for len(s.queues[slot]) > 0 {
			head := s.queues[slot][0]
			// Pop by copying down so the queue keeps its backing array;
			// re-slicing forward would force enqueue to reallocate forever.
			q := s.queues[slot]
			copy(q, q[1:])
			s.queues[slot] = q[:len(q)-1]
			if head.app.Retired() || !head.app.Configurable(head.task) {
				// Stale entry (task already finished or configured).
				continue
			}
			if err := w.Reconfigure(slot, head.app, head.task); err != nil {
				return n
			}
			n++
			break
		}
	}
	return n
}

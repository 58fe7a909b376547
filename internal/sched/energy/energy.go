// Package energy implements NimblockEnergy: the Nimblock algorithm with
// an energy-conserving allocation and weighted per-tenant fairness.
//
// It keeps Nimblock's skeleton — PREMA tokens, candidate pool,
// goal-number slot allocation from saturation analysis, single-CAP
// launch, boundary preemption of over-consumers — and changes two
// things:
//
//   - Energy: allocation stops at each candidate's goal number. Core
//     Nimblock's phase 3 hands leftover slots to any application that
//     can still use them, buying marginal latency at the cost of extra
//     occupied slots (active power) well past the saturation point.
//     NimblockEnergy leaves post-goal slots idle, so the active-power
//     integral tracks the work's saturation profile instead of the
//     board size.
//
//   - Fairness: candidates with equal age are served in ascending order
//     of weighted tenant service deficit (delivered fabric time divided
//     by tenant weight), so tenants converge to service proportional to
//     their weights under contention. Ties break by arrival then ID, so
//     the order — and every decision downstream of it — stays
//     deterministic.
package energy

import (
	"slices"

	"nimblock/internal/fpga"
	"nimblock/internal/saturate"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// Scheduler is the NimblockEnergy policy.
type Scheduler struct {
	pool  *sched.TokenPool
	plans *saturate.Planner
	cands []*sched.App // scratch, reused across Schedule calls
}

// New returns a NimblockEnergy scheduler planning against boards shaped
// like the given configuration.
func New(board fpga.Config) *Scheduler {
	return &Scheduler{
		pool:  sched.NewTokenPool(),
		plans: saturate.NewPlanner(board, true),
	}
}

// Name implements sched.Scheduler.
func (s *Scheduler) Name() string { return "NimblockEnergy" }

// Pipelining implements sched.Scheduler: pipelining within the goal
// allocation costs no extra slots, so it stays on.
func (s *Scheduler) Pipelining() bool { return true }

// NextWake implements sched.Waker: the policy reads the clock only
// through its token pool.
func (s *Scheduler) NextWake(w sched.World) sim.Time { return s.pool.NextWake(w.Now(), w.Apps()) }

// Schedule implements sched.Scheduler.
func (s *Scheduler) Schedule(w sched.World, why sched.Reason) {
	apps := w.Apps()
	s.pool.Accumulate(w.Now(), apps)
	s.cands = sched.CandidatesInto(s.cands, apps)
	s.orderByDeficit(w, s.cands)
	s.reallocate(w, s.cands)
	s.selectAndLaunch(w, s.cands)
}

// orderByDeficit re-sorts the candidate pool so the most underserved
// tenant (lowest delivered-service-to-weight ratio) launches first.
// The sort is stable over CandidatesInto's age order, so single-tenant
// workloads see exactly Nimblock's candidate order.
func (s *Scheduler) orderByDeficit(w sched.World, cands []*sched.App) {
	slices.SortStableFunc(cands, func(x, y *sched.App) int {
		dx := float64(w.TenantService(x.Tenant)) / x.ServiceWeight()
		dy := float64(w.TenantService(y.Tenant)) / y.ServiceWeight()
		if dx != dy {
			if dx < dy {
				return -1
			}
			return 1
		}
		return 0
	})
}

// reallocate is core's phases 1 and 2 only: one slot per candidate,
// then up to each candidate's goal number. The missing phase 3 is the
// energy lever — slots past every goal stay free and draw no active
// power, while the saturation analysis guarantees the goal allocation
// already sits at the latency knee.
func (s *Scheduler) reallocate(w sched.World, cands []*sched.App) {
	for _, a := range w.Apps() {
		a.SlotsAllocated = 0
	}
	usable := w.UsableSlots()
	remaining := usable
	if remaining == 0 {
		return
	}
	for _, a := range cands {
		if remaining == 0 {
			return
		}
		a.SlotsAllocated = 1
		remaining--
	}
	for _, a := range cands {
		if remaining == 0 {
			return
		}
		an := s.plans.Plan(a, usable)
		a.Goal = an.Goal
		add := an.Goal - a.SlotsAllocated
		if add > remaining {
			add = remaining
		}
		if add > 0 {
			a.SlotsAllocated += add
			remaining -= add
		}
	}
}

// selectAndLaunch mirrors core: first deficit-ordered candidate with
// headroom and a configurable task wins the idle CAP; the lowest-index
// free slot hosts it (deterministic tie-break).
func (s *Scheduler) selectAndLaunch(w sched.World, cands []*sched.App) {
	if w.CAPBusy() {
		return
	}
	for _, a := range cands {
		if a.SlotsAllocated == 0 || a.SlotsUsed() >= a.SlotsAllocated {
			continue
		}
		tasks := a.ConfigurableTasks()
		if len(tasks) == 0 {
			continue
		}
		if free := w.FreeSlots(); len(free) > 0 {
			w.Reconfigure(free[0], a, tasks[0])
			return
		}
		s.preempt(w)
		return
	}
}

// preempt mirrors core's Algorithm 2: batch-preempt the topologically
// latest active task of the worst over-consumer, one request in flight.
func (s *Scheduler) preempt(w sched.World) {
	for slot := 0; slot < w.NumSlots(); slot++ {
		if w.PreemptRequested(slot) {
			return
		}
	}
	var victim *sched.App
	over := 0
	for slot := 0; slot < w.NumSlots(); slot++ {
		a, _, ok := w.SlotOccupant(slot)
		if !ok {
			continue
		}
		if c := a.OverConsumption(); c > over {
			over, victim = c, a
		}
	}
	if victim == nil {
		return
	}
	rank := victim.Graph.TopoRank()
	bestSlot, bestRank := -1, -1
	for slot := 0; slot < w.NumSlots(); slot++ {
		a, task, ok := w.SlotOccupant(slot)
		if !ok || a != victim || a.TaskState(task) != sched.TaskActive {
			continue
		}
		if rank[task] > bestRank {
			bestRank, bestSlot = rank[task], slot
		}
	}
	if bestSlot >= 0 {
		w.RequestPreempt(bestSlot)
	}
}

package core

import (
	"cmp"
	"slices"

	"nimblock/internal/fpga"
	"nimblock/internal/saturate"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// Energy is the NimblockEnergy policy: the full Nimblock pass with an
// energy-conserving allocation and weighted per-tenant fairness. It
// keeps the tokens, the candidate pool, goal-number allocation, the
// single-CAP launch and Algorithm 2, and changes two things:
//
//   - Energy: allocation stops at each candidate's goal number. Phase 3
//     of Nimblock's reallocation hands leftover slots to any application
//     that can still use them, buying marginal latency at the cost of
//     extra occupied slots (active power) well past the saturation
//     point. Energy leaves post-goal slots idle, so the active-power
//     integral tracks the work's saturation profile instead of the board
//     size, while the saturation analysis guarantees the goal allocation
//     already sits at the latency knee.
//
//   - Fairness: candidates are served in ascending order of weighted
//     tenant service deficit (delivered fabric time divided by tenant
//     weight), so tenants converge to service proportional to their
//     weights under contention. The sort is stable over the candidate
//     pool's age order, so single-tenant workloads see exactly
//     Nimblock's candidate order and every decision stays deterministic.
type Energy struct {
	plans *saturate.Planner
	pool  sched.CandidatePool
	order []*sched.App // scratch: the candidates in deficit order
}

// NewEnergy returns a NimblockEnergy scheduler planning against boards
// shaped like the given configuration.
func NewEnergy(board fpga.Config) *Energy {
	return &Energy{plans: saturate.NewPlanner(board, true)}
}

// Name implements sched.Scheduler.
func (s *Energy) Name() string { return "NimblockEnergy" }

// Pipelining implements sched.Scheduler: pipelining within the goal
// allocation costs no extra slots, so it stays on.
func (s *Energy) Pipelining() bool { return true }

// NextWake implements sched.Waker: the policy reads the clock only
// through its tokens, so this is the candidate pool's memoized wake.
func (s *Energy) NextWake(sched.World) sim.Time { return s.pool.NextWake() }

// Schedule implements sched.Scheduler.
func (s *Energy) Schedule(w sched.World, why sched.Reason) {
	cands, _ := s.pool.Refresh(w)
	s.serve(w, cands)
}

// serve allocates and launches over the candidates, given in age
// order. Tenant service moves with every item, so the deficit order is
// sorted at every call, in a copy: the pool's age order must stay
// intact as the sort's stable tie order.
func (s *Energy) serve(w sched.World, cands []*sched.App) {
	s.order = append(s.order[:0], cands...)
	slices.SortStableFunc(s.order, func(x, y *sched.App) int {
		return cmp.Compare(float64(w.TenantService(x.Tenant))/x.ServiceWeight(),
			float64(w.TenantService(y.Tenant))/y.ServiceWeight())
	})
	allocateGoals(w, s.order, s.plans)
	launch(w, s.order, true)
}

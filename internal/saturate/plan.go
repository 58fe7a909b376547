package saturate

import (
	"nimblock/internal/fpga"
	"nimblock/internal/sched"
)

// Planner turns saturation analyses into the slot plans a Nimblock-style
// policy allocates from. Plans are memoized at two levels: each app
// carries its own plan (sched.App.Plan) for the usable-slot count it was
// last planned at, so a board whose size is unchanged costs no lookup;
// when faults change the usable count, the planner's cache, keyed by
// application shape and board size, is consulted before the process-wide
// analysis cache.
type Planner struct {
	board      fpga.Config
	pipelining bool
	cache      map[planKey]sched.Plan
}

type planKey struct {
	name  string
	batch int
	slots int
}

// NewPlanner returns a planner for boards shaped like the given
// configuration; pipelining selects the analysis the policy runs under.
func NewPlanner(board fpga.Config, pipelining bool) *Planner {
	return &Planner{board: board, pipelining: pipelining, cache: map[planKey]sched.Plan{}}
}

// Plan returns the application's plan on a board with the given number
// of usable slots and memoizes it on the app. The analysis is computed
// from HLS estimates only; on the real system it runs in parallel with
// synthesis, firmly off the user flow's critical path, so treating it as
// pre-computed is faithful. Re-planning at a reduced slot count when
// faults quarantine part of the board is cheap for the same reason.
func (p *Planner) Plan(a *sched.App, slots int) sched.Plan {
	if a.Plan.Goal > 0 && a.Plan.Slots == slots {
		return a.Plan
	}
	key := planKey{name: a.Name, batch: a.Batch, slots: slots}
	pl, ok := p.cache[key]
	if !ok {
		board := p.board
		board.Slots = slots
		r, err := AnalyzeCached(a.Graph, a.Report, a.Batch, board, p.pipelining)
		if err != nil {
			// Conservative fallback: the universally best second slot.
			r = Result{Goal: 2, MaxUseful: a.Graph.NumTasks()}
		}
		pl = sched.Plan{Slots: slots, Goal: max(r.Goal, 1)}
		pl.MaxUseful = max(r.MaxUseful, pl.Goal)
		p.cache[key] = pl
	}
	a.Plan = pl
	return pl
}

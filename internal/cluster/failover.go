package cluster

// The cluster's placement policy: the dispatch modes, and hedged
// dispatch of SLO-critical submissions. Everything else about failure
// domains (health-filtered candidates, parking, evacuation, migration,
// retry budgets) lives in internal/frontend.

import (
	"nimblock/internal/admit"
	"nimblock/internal/frontend"
	"nimblock/internal/hv"
	"nimblock/internal/sim"
)

// hedge tracks one submission placed on two boards. The first copy to
// retire wins; the loser is aborted. The admission ticket is held here
// (not in the core's bindings) so it is released exactly once.
type hedge struct {
	copies map[int]int64 // board -> board-local submission ID
	ticket *admit.Ticket
	done   bool
}

// pickAmong applies the dispatch policy over a non-empty candidate set
// in board order. Load and pending ties break toward the lowest board
// index — strict "<" keeps the earliest minimum — so placement is
// deterministic regardless of which boards happen to be healthy.
func (c *Cluster) pickAmong(cands []int) int {
	switch c.cfg.Dispatch {
	case LeastLoaded:
		best, bestLoad := -1, sim.Duration(0)
		for _, b := range cands {
			if l := c.core.Board(b).OutstandingEstimate(); best < 0 || l < bestLoad {
				best, bestLoad = b, l
			}
		}
		return best
	case LeastPending:
		best, bestN := -1, 0
		for _, b := range cands {
			if p := c.core.Board(b).PendingCount(); best < 0 || p < bestN {
				best, bestN = b, p
			}
		}
		return best
	case HeteroAware:
		best, bestScore := -1, 0.0
		for _, b := range cands {
			if s := c.heteroScore(b); best < 0 || s < bestScore {
				best, bestScore = b, s
			}
		}
		return best
	case RandomBoard:
		return cands[c.rng.Intn(len(cands))]
	default: // RoundRobin: the first candidate at or after the cursor, wrapping.
		b := cands[0]
		for _, x := range cands {
			if x >= c.next {
				b = x
				break
			}
		}
		c.next = (b + 1) % c.core.Boards()
		return b
	}
}

// heteroScore is the HeteroAware placement score of board i over its
// estimated outstanding seconds (see frontend.PlacementScore). Equal
// scores break toward the lowest board index via pickAmong's strict "<".
func (c *Cluster) heteroScore(i int) float64 {
	b := c.core.Board(i)
	return frontend.PlacementScore(b.Board(), b.OutstandingEstimate().Seconds())
}

// hedgeDispatch places a submission at or above the hedge priority on
// the two best candidate boards. It returns false when fewer than two
// boards can take it, and the core falls back to a single placement.
func (c *Cluster) hedgeDispatch(idx int, t *admit.Ticket) bool {
	sub := c.subs[idx]
	if sub.priority < c.hedgeAt {
		return false
	}
	cands := c.core.Candidates()
	if len(cands) < 2 {
		return false
	}
	first := c.pickAmong(cands)
	rest := make([]int, 0, len(cands)-1)
	for _, b := range cands {
		if b != first {
			rest = append(rest, b)
		}
	}
	second := c.pickAmong(rest)
	id1, err := c.submitTo(first, sub)
	if err != nil {
		c.core.Fault(err, t)
		return true
	}
	id2, err := c.submitTo(second, sub)
	if err != nil {
		// The twin failed to submit: keep the single healthy placement.
		c.core.Fault(err, nil)
		c.core.Bind(first, id1, idx, t)
		return true
	}
	c.hedges[idx] = &hedge{copies: map[int]int64{first: id1, second: id2}, ticket: t}
	c.core.Bind(second, id2, idx, nil)
	c.core.Bind(first, id1, idx, nil) // bound last: failure reports name the primary copy's board
	mon := c.core.Monitor()
	mon.StatsRef().Hedged++
	if ins := mon.Instruments(); ins != nil {
		ins.Hedged.Inc()
	}
	return true
}

// hedgeRetired settles a hedge when one copy retires: the loser copy is
// aborted, its spent fabric time booked as wasted, and the ticket the
// hedge held released.
func (c *Cluster) hedgeRetired(board int, id int64, idx int) {
	h := c.hedges[idx]
	if h == nil || h.done {
		return
	}
	h.done = true
	mon := c.core.Monitor()
	for b, cid := range h.copies {
		if b == board && cid == id {
			continue
		}
		if ok, spent := c.core.Board(b).Abort(cid); ok {
			mon.StatsRef().HedgeCancelled++
			if ins := mon.Instruments(); ins != nil {
				ins.HedgeWins.Inc()
			}
			c.core.Waste(spent)
		}
		c.core.Forget(b, cid)
	}
	c.core.Release(h.ticket)
	h.ticket = nil
}

// hedgeEvacuated claims a dead board's copy of a live hedge while its
// twin is still in flight. Only the death of the last copy turns the
// hedge back into ordinary failover, carrying the hedge's ticket; the
// wasted work is booked here either way.
func (c *Cluster) hedgeEvacuated(b, idx int, ev *hv.Evacuee, t *admit.Ticket) (*admit.Ticket, bool) {
	h := c.hedges[idx]
	if h == nil || h.done {
		return t, false
	}
	delete(h.copies, b)
	c.core.Waste(ev.WorkDone)
	if len(h.copies) > 0 {
		return nil, true
	}
	delete(c.hedges, idx)
	ev.WorkDone = 0
	return h.ticket, false
}

package frontend

// Board-level failure domains. When Config.Health (or a non-empty
// Config.BoardFaults) arms this layer, every board gets a health
// tracker fed by its hypervisor's event heartbeat, placement only
// considers the best placeable boards, and a declared board death
// evacuates unfinished work: already-retired results are harvested,
// mid-flight submissions are re-dispatched onto healthy boards
// (resuming from checkpoints when the target board runs the checkpoint
// subsystem), and work that exhausts its retry budget, or that no board
// ever came back for, surfaces as a distinct terminal Failed outcome —
// never silently dropped, never double-counted.

import (
	"fmt"

	"nimblock/internal/admit"
	"nimblock/internal/health"
	"nimblock/internal/hv"
	"nimblock/internal/sim"
)

// parked is one unit of dispatchable work waiting for a placeable
// board: a fresh submission that arrived while every board was down,
// or an evacuee carried off a dead board.
type parked struct {
	idx int
	t   *admit.Ticket
	// snaps and workDone travel with an evacuee: surviving checkpoints
	// to seed into the next board, and the fabric time the dead board
	// already spent (wasted unless the snapshots carry part of it).
	snaps    []hv.Snapshot
	workDone sim.Duration
	// redispatch marks evacuees, so placement books the re-dispatch and
	// wasted/migrated work into the failover stats.
	redispatch bool
}

// initHealth arms the failure-domain layer when configured. With no
// Health options and no board faults there is no monitor, no poll, and
// no extra event.
func (c *Core) initHealth() error {
	if c.cfg.Health == nil && len(c.cfg.BoardFaults) == 0 {
		return nil
	}
	opt := health.Options{}
	if c.cfg.Health != nil {
		opt = *c.cfg.Health
	}
	opt = opt.WithDefaults()
	if opt.Tracker.Seed == 0 {
		opt.Tracker.Seed = c.cfg.Seed
	}
	c.hopt = opt
	hooks := health.Hooks{
		Progress:  func(b int) uint64 { return c.boards[b].Progress() },
		Busy:      func(b int) bool { return c.boards[b].PendingCount() > 0 },
		OnDead:    c.boardDead,
		OnFreeze:  func(b int) { c.boards[b].Freeze() },
		OnDegrade: func(b int, factor float64) { c.boards[b].SetSlowdown(factor) },
		OnRevive:  c.boardRevive,
	}
	c.mon = health.NewMonitor(c.eng, len(c.boards), opt.Tracker, hooks, health.NewInstruments(opt.Registry))
	if err := c.mon.Schedule(c.cfg.BoardFaults); err != nil {
		return fmt.Errorf("%s: %w", c.cfg.Name, err)
	}
	c.cands = make([]int, 0, len(c.boards))
	return nil
}

// Monitor exposes the health monitor; nil when the failure-domain layer
// is off.
func (c *Core) Monitor() *health.Monitor { return c.mon }

// Candidates lists the boards placement may use right now, in index
// order. With the failure domain off that is every board. Armed, it is
// the placeable boards with the best (lowest) health score, so degraded
// boards get work only when no clean board is placeable; empty means
// nothing can take work. The slice is reused by the next call.
func (c *Core) Candidates() []int {
	if c.mon == nil {
		return c.all
	}
	now := c.eng.Now()
	c.cands = c.cands[:0]
	best := int(^uint(0) >> 1)
	for b := range c.boards {
		t := c.mon.Tracker(b)
		if !t.Placeable(now) {
			continue
		}
		s := t.Score()
		if s < best {
			best = s
			c.cands = c.cands[:0]
		}
		if s == best {
			c.cands = append(c.cands, b)
		}
	}
	return c.cands
}

// place lands one unit of work (fresh, parked, or evacuated) through
// the front-end's Place hook, parking it when no board can take it,
// seeding surviving checkpoints so migrated items resume instead of
// re-executing, and booking the re-dispatch accounting.
func (c *Core) place(p parked) {
	cands := c.Candidates()
	if len(cands) == 0 {
		c.parked = append(c.parked, p)
		return
	}
	b, id, err := c.hooks.Place(p.idx, cands)
	if b < 0 {
		c.parked = append(c.parked, p)
		return
	}
	if err != nil {
		c.Fault(err, p.t)
		return
	}
	if c.mon != nil {
		var migrated sim.Duration
		st, ins := c.mon.StatsRef(), c.mon.Instruments()
		if len(p.snaps) > 0 && c.boardConfig(b).Checkpoint.Enabled {
			c.boards[b].SeedCheckpoints(id, p.snaps)
			for _, s := range p.snaps {
				migrated += s.Progress
			}
			st.MigratedItems += len(p.snaps)
			st.MigratedWork += migrated
			if ins != nil {
				ins.MigratedItems.Add(int64(len(p.snaps)))
				ins.MigratedWork.Add(migrated.Seconds())
			}
		}
		if p.redispatch {
			st.Redispatched++
			if ins != nil {
				ins.Redispatched.Inc()
			}
			c.Waste(max(p.workDone-migrated, 0))
		}
	}
	c.Bind(b, id, p.idx, p.t)
}

// unpark retries placement for everything parked; work that still has
// no placeable board parks again. place appends at most one entry per
// call, never past the one being retried, so the slice is reused in
// place.
func (c *Core) unpark() {
	waiting := c.parked
	c.parked = c.parked[:0]
	for _, p := range waiting {
		c.place(p)
	}
}

// boardDead fails a dead board's work over. Results that retired before
// the death are harvested now — the board is rebuilt immediately and
// its replacement restarts local IDs, so the old bindings must be
// settled before they reset. Unfinished work is re-dispatched (with
// surviving checkpoints), parked if no board can take it, or failed
// once its retry budget runs out.
func (c *Core) boardDead(b int) {
	evs := c.boards[b].Evacuate()
	results, err := c.boards[b].Collect()
	if err != nil {
		c.errs = append(c.errs, fmt.Errorf("%s: harvesting dead board %d: %w", c.cfg.Name, b, err))
	}
	old := c.bound[b]
	for _, r := range results {
		bd, ok := old[r.AppID]
		if !ok {
			c.errs = append(c.errs, fmt.Errorf("%s: dead board %d reported unknown app %d", c.cfg.Name, b, r.AppID))
			continue
		}
		o := c.completed(bd.idx, b, r)
		c.settle(bd.idx, &o)
	}
	// Rebuild now, while the tracker still refuses placements: the dead
	// hypervisor can never serve again, and a revive only has to lift
	// the breaker. mkPolicy runs while Board(b) is still the outgoing
	// generation.
	if h, err := c.newBoard(b); err != nil {
		c.errs = append(c.errs, fmt.Errorf("%s: rebuilding board %d: %w", c.cfg.Name, b, err))
	} else {
		c.boards[b] = h
		if c.hooks.Loaded != nil {
			c.hooks.Loaded(b)
		}
	}
	c.bound[b] = map[int64]binding{}
	if c.hooks.Lost != nil {
		c.hooks.Lost(b)
	}
	for i := range evs {
		ev := &evs[i]
		bd, ok := old[ev.ID]
		if !ok {
			c.errs = append(c.errs, fmt.Errorf("%s: dead board %d evacuated unknown app %d", c.cfg.Name, b, ev.ID))
			continue
		}
		t := bd.t
		if c.hooks.Evacuated != nil {
			var claimed bool
			if t, claimed = c.hooks.Evacuated(b, bd.idx, ev, t); claimed {
				continue
			}
		}
		c.failover(parked{idx: bd.idx, t: t, snaps: ev.Snapshots, workDone: ev.WorkDone, redispatch: true})
	}
}

// failover re-dispatches one evacuee, failing it permanently once its
// retry budget is exhausted.
func (c *Core) failover(p parked) {
	e := &c.subs[p.idx]
	e.retries++
	if e.retries > c.hopt.RetryBudget {
		c.Waste(p.workDone)
		c.fail(p.idx, "retries-exhausted")
		c.Release(p.t)
		return
	}
	c.place(p)
}

// fail records a permanent loss: the submission surfaces from Run as a
// Failed outcome instead of vanishing. The caller frees its ticket.
func (c *Core) fail(idx int, reason string) {
	e := &c.subs[idx]
	c.settle(idx, &Outcome{Result: c.unrun(idx), Board: e.last, Failed: true, FailReason: reason, Attempts: e.retries})
	c.mon.StatsRef().FailedSubmissions++
	if ins := c.mon.Instruments(); ins != nil {
		ins.Failed.Inc()
	}
}

// Waste books fabric time lost to a board death or a cancelled copy.
func (c *Core) Waste(d sim.Duration) {
	c.mon.StatsRef().WastedWork += d
	if ins := c.mon.Instruments(); ins != nil {
		ins.WastedWork.Add(d.Seconds())
	}
}

// strand runs once the engine has drained: no board ever came back for
// what is still parked, nor for admitted work still queued behind it,
// so both fail as "stranded". Failing parked work frees admission
// slots; the queue is drained through them until it is empty.
func (c *Core) strand() {
	if c.mon == nil {
		return
	}
	for _, p := range c.parked {
		c.Waste(p.workDone)
		c.fail(p.idx, "stranded")
		if p.t != nil {
			c.ctrl.Release(p.t)
		}
	}
	c.parked = nil
	if c.ctrl == nil {
		return
	}
	for ts := c.ctrl.Dispatchable(); len(ts) > 0; ts = c.ctrl.Dispatchable() {
		for _, t := range ts {
			c.fail(t.Request().Payload.(int), "stranded")
			c.ctrl.Release(t)
		}
	}
}

// boardRevive runs when a dead board's scheduled recovery arrives. The
// hypervisor was already rebuilt at death; what remains is waking
// parked work once the circuit breaker re-admits the board.
func (c *Core) boardRevive(b int) {
	c.eng.At(c.mon.Tracker(b).ReadmitAt(), c.unpark)
}

// FailoverStats reports the failover accounting; the zero Stats when
// the failure-domain layer is off.
func (c *Core) FailoverStats() health.Stats {
	if c.mon == nil {
		return health.Stats{}
	}
	return c.mon.Stats()
}

// BoardStates reports every board's health state; nil when the
// failure-domain layer is off.
func (c *Core) BoardStates() []health.State {
	if c.mon == nil {
		return nil
	}
	out := make([]health.State, len(c.boards))
	for b := range c.boards {
		out[b] = c.mon.Tracker(b).State()
	}
	return out
}

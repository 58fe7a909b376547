package hv

// Board-level failure-domain support: the cluster and serverless
// front-ends treat each hypervisor as a failure domain that can freeze
// (board-hang), die (board-crash or liveness timeout), or degrade
// (board-wide slowdown). A frozen board stops processing events — every
// callback is guarded by halted() — so its heartbeat counter stalls and
// the fleet's liveness monitor notices. A dead board is evacuated: its
// unfinished submissions (with any surviving checkpoints) are handed
// back for re-dispatch, and the hypervisor is left holding only retired
// results so Collect still balances.

import (
	"cmp"
	"slices"

	"nimblock/internal/sched"
	"nimblock/internal/sim"
)

// halted reports whether the board has stopped serving (frozen or dead).
func (h *Hypervisor) halted() bool { return h.frozen || h.dead }

// Progress returns the monotonic heartbeat counter: it advances with
// every emitted event and stalls the moment the board freezes. Fleet
// liveness polls compare it across intervals.
func (h *Hypervisor) Progress() uint64 { return h.progress }

// Frozen reports whether the board is frozen (board-hang).
func (h *Hypervisor) Frozen() bool { return h.frozen }

// Evacuated reports whether the board was declared dead and drained.
func (h *Hypervisor) Evacuated() bool { return h.dead }

// SetSlowdown applies a board-wide latency multiplier to every item
// attempt started from now on (board-degrade). Factors <= 1 clear it.
// In-flight items keep the factor they started with.
func (h *Hypervisor) SetSlowdown(f float64) {
	if f <= 1 {
		h.slow = 0
		return
	}
	h.slow = f
}

// Freeze halts the board (board-hang): every slot's pending completion,
// watchdog, and checkpoint timer is cancelled and all further callbacks
// are dropped by the halted() guards, so no event — and therefore no
// heartbeat — is ever emitted again. Freezing is one-way: a frozen
// board is either evacuated after the fleet declares it dead, or
// discarded when a scheduled recovery replaces it.
func (h *Hypervisor) Freeze() {
	if h.halted() {
		return
	}
	h.frozen = true
	for s := range h.slots {
		rt := &h.slots[s]
		// Fold a running stretch into doneWall at the freeze instant so
		// frozen wall time is never billed as fabric work.
		if rt.curItem >= 0 && !rt.saving && !rt.restoring {
			h.pause(rt)
		} else {
			h.stopTimers(rt)
		}
		rt.hung = true
	}
	h.tickPending = false
}

// Snapshot is one surviving checkpoint carried off a dead board.
type Snapshot struct {
	Task, Item int
	// Progress is the nominal work the snapshot captured; Bytes is the
	// state size that must stream through the target board's CAP before
	// the item resumes.
	Progress sim.Duration
	Bytes    int64
}

// Evacuee is one unfinished submission handed back when its board died.
type Evacuee struct {
	// ID is the board-local submission ID the front-end keyed its
	// bookkeeping with.
	ID       int64
	App      *sched.App
	Priority int
	Batch    int
	Arrival  sim.Time
	// WorkDone is the fabric time the dead board had already spent on
	// the submission (run + reconfiguration + in-flight stretches) —
	// wasted unless snapshots carry part of it to the next board.
	WorkDone sim.Duration
	// Snapshots are the submission's surviving checkpoints, in no
	// particular order. Seed them into the target hypervisor with
	// SeedCheckpoints so migrated items resume instead of re-executing.
	Snapshots []Snapshot
}

// Evacuate declares the board dead and drains it: every unfinished
// submission is returned (with its surviving checkpoints) for the fleet
// to re-dispatch, and the hypervisor forgets it ever saw them, so
// Collect returns exactly the results that retired before the death.
func (h *Hypervisor) Evacuate() []Evacuee {
	h.Freeze()
	h.dead = true
	// Empty the queues first, so the pending count has already dropped
	// when forget reports the load change below.
	h.pending = h.pending[:0]
	h.transit = h.transit[:0]
	var out []Evacuee
	// Keep only apps whose results already retired so Collect's
	// conservation check balances.
	kept := h.apps[:0]
	for _, a := range h.apps {
		if a.Retired() {
			kept = append(kept, a)
			continue
		}
		r := h.records[a.ID]
		ev := Evacuee{ID: a.ID, App: a, Priority: a.Priority, Batch: a.Batch, Arrival: a.Arrival,
			WorkDone: r.res.Run + r.res.Reconfig}
		for s := range h.slots {
			rt := &h.slots[s]
			if rt.app != a || !rt.active || rt.curItem < 0 {
				continue
			}
			// The dying stretch of an in-flight item was never booked
			// into Run; Freeze already folded it into doneWall. Its
			// snapshot, held by the slot, joins the record's.
			ev.WorkDone += rt.doneWall
			if rt.hasLast {
				r.setSnapshot(rt.task, rt.curItem, rt.last)
			}
		}
		for key, rec := range r.ckpt {
			ev.Snapshots = append(ev.Snapshots, Snapshot{
				Task: key[0], Item: key[1], Progress: rec.progress, Bytes: rec.bytes,
			})
		}
		// Map iteration order is random; keep evacuees deterministic.
		slices.SortFunc(ev.Snapshots, func(x, y Snapshot) int { return cmp.Or(x.Task-y.Task, x.Item-y.Item) })
		a.MarkAborted()
		h.forget(a)
		out = append(out, ev)
	}
	h.apps = kept
	for s := range h.slots {
		h.resetSlot(s)
	}
	return out
}

// SeedCheckpoints installs snapshots evacuated from a dead board under
// a freshly submitted ID on this board, before any of its items is in
// flight. When the migrated item starts,
// the normal restore path streams the state in through this board's CAP
// — migration is priced by the same cost model as any restore.
func (h *Hypervisor) SeedCheckpoints(id int64, snaps []Snapshot) {
	r := h.records[id]
	if r == nil {
		return // not a live submission on this board
	}
	for _, s := range snaps {
		r.setSnapshot(s.Task, s.Item, ckptRecord{progress: s.Progress, bytes: s.Bytes})
	}
}

// Abort cancels one unfinished submission (the hedge loser after its
// twin retired elsewhere). In-flight items are dropped, loaded slots
// are released, and a mid-reconfiguration stream is left to drain — its
// completion callback sees the aborted app and frees the slot. It
// returns false if the submission already retired (or was never here),
// and the fabric time the board had spent on it.
func (h *Hypervisor) Abort(id int64) (bool, sim.Duration) {
	r := h.records[id]
	if r == nil {
		return false, 0
	}
	app := r.app
	spent := r.res.Run + r.res.Reconfig
	for s := r.hosts.next(-1); s >= 0; s = r.hosts.next(s) {
		rt := &h.slots[s]
		if !rt.active {
			continue // CAP stream in flight: reconfigDone drops it
		}
		if rt.curItem >= 0 {
			spent += h.attemptWall(rt)
		}
		if h.vacate(s) != nil {
			return false, 0
		}
		h.wake(sched.ReasonSlotFree)
	}
	app.MarkAborted()
	h.changes++ // an abort emits no event
	h.apps = without(h.apps, app)
	h.pending = without(h.pending, app)
	h.transit = without(h.transit, app)
	h.forget(app)
	h.wake(sched.ReasonAppDone)
	return true, spent
}

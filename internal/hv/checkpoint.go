package hv

// The checkpoint/restore subsystem (Config.Checkpoint). One capture
// path serves periodic and on-demand saves: both pause the item at the
// latest preemption point it has passed and stream its state out
// through the CAP. One restore path streams a snapshot back in at the
// start of an attempt — including snapshots migrated in from a dead
// board. Killed and preempted attempts settle against the last snapshot:
// work up to it is committed, work past it is wasted.

import (
	"fmt"
	"math"

	"nimblock/internal/fpga"
	"nimblock/internal/sched"
	"nimblock/internal/sim"
	"nimblock/internal/trace"
)

// ckptRecord is one saved snapshot: the nominal work it captured and
// the state size to stream back.
type ckptRecord struct {
	progress sim.Duration
	bytes    int64
}

// A snapshot lives in one place at a time. While its item is in flight
// the slot owns it (slotRuntime.last): restore moves it out of the
// record's map at attempt start, and captureDone replaces it there.
// The map holds the snapshots of items that are not in flight: settle
// writes the slot's back when an attempt ends early, Evacuate flushes
// in-flight slots before it collects, and SeedCheckpoints installs
// migrated ones. itemDone clears the slot's; no map entry is touched.

func (r *appRecord) setSnapshot(task, item int, rec ckptRecord) {
	if r.ckpt == nil {
		r.ckpt = map[[2]int]ckptRecord{}
	}
	r.ckpt[[2]int{task, item}] = rec
}

// takeSnapshot removes the item's snapshot from the map and returns it.
func (r *appRecord) takeSnapshot(task, item int) (ckptRecord, bool) {
	key := [2]int{task, item}
	rec, ok := r.ckpt[key]
	if ok {
		delete(r.ckpt, key)
	}
	return rec, ok
}

// ckptOn reports whether the checkpoint/restore subsystem is live.
func (h *Hypervisor) ckptOn() bool { return h.cfg.Checkpoint.Enabled }

// taskStateBytes is the checkpointable state size of one task: declared
// on the graph, or the configured default.
func (h *Hypervisor) taskStateBytes(a *sched.App, task int) int64 {
	if b := a.Graph.Task(task).StateBytes; b > 0 {
		return b
	}
	return h.cfg.Checkpoint.StateBytes
}

// armSave schedules the next periodic save of the running item.
func (h *Hypervisor) armSave(slot int) {
	h.slots[slot].ckptEv = h.eng.After(h.cfg.Checkpoint.Period, h.bind(&h.fnsAt(slot).save, (*Hypervisor).periodicSave, slot))
}

// periodicSave is the periodic checkpoint timer. It is armed only while
// a non-hung item runs (a hung one has no consistent progress to save)
// and cancelled whenever the run pauses or ends.
func (h *Hypervisor) periodicSave(slot int) {
	if h.halted() {
		return
	}
	h.capture(slot, true)
}

// snapAt is the nominal progress of the latest preemption point the
// slot's item has passed at instant t of its running stretch. It is
// monotone in t: progress only grows within a stretch, and so does the
// point it rounds down to.
func (h *Hypervisor) snapAt(rt *slotRuntime, t sim.Time) sim.Duration {
	nominal := rt.app.Graph.Task(rt.task).Latency
	frac := float64(rt.base+rt.doneNominal+h.runningAt(rt, t)) / float64(nominal)
	return sim.Duration(rt.app.Graph.SnapFraction(rt.task, frac, h.cfg.Checkpoint.DefaultPoints) * float64(nominal))
}

// freshSlack is how far freshBound's analytic guess is moved early, so
// that its float rounding cannot overshoot the first fresh instant.
const freshSlack = 2 * sim.Microsecond

// freshBound returns an instant before which no save of the slot's
// running stretch can pass a new preemption point, so a periodic save
// before it needs no check. It guesses the instant of the next point
// past the last snapshot, or one microsecond past the stretch end (when
// the item completes and its timers stop) if that comes first or no
// point is left. It accepts the guess only if the exact check is still
// false one microsecond earlier; by monotonicity (snapAt) it is then
// false at every earlier instant of the stretch. A guess that fails the
// check yields the stretch start, which skips nothing.
func (h *Hypervisor) freshBound(rt *slotRuntime) sim.Time {
	start, end := rt.itemStart, rt.itemStart.Add(rt.stretch)
	guess := end + 1
	if p, ok := rt.app.Graph.NextPoint(rt.task, rt.last.progress, h.cfg.Checkpoint.DefaultPoints); ok {
		nominal := rt.app.Graph.Task(rt.task).Latency
		need := sim.Duration(math.Ceil(p*float64(nominal))) - rt.base - rt.doneNominal
		guess = min(guess, start.Add(stretchDur(need, rt.factor)-freshSlack))
	}
	if guess <= start || h.snapAt(rt, guess-1) > rt.last.progress {
		return start
	}
	return guess
}

// capture saves the state of the slot's running item at the latest
// preemption point it has passed. A periodic save with no new point
// since the last snapshot leaves the item running and tries again next
// period; before the stretch's fresh bound it knows that without
// looking. An on-demand capture (a mid-item preemption request) pauses
// the item either way; with nothing new to save it releases the slot at
// once, and work past the last snapshot re-executes on resume.
func (h *Hypervisor) capture(slot int, periodic bool) {
	rt := &h.slots[slot]
	now := h.eng.Now()
	if periodic && now < rt.freshAt {
		if h.strictSaves == nil {
			h.armSave(slot)
			return
		}
		*h.strictSaves++
		if h.snapAt(rt, now) > rt.last.progress {
			h.fail(fmt.Errorf("hv: slot %d passed a new preemption point at %v, before its fresh bound %v", slot, now, rt.freshAt))
			return
		}
	}
	a, task := rt.app, rt.task
	snap := h.snapAt(rt, now)
	fresh := snap > rt.last.progress
	if periodic && !fresh {
		h.armSave(slot)
		return
	}
	h.pause(rt)
	rt.saving = true
	if !fresh {
		h.checkpointPreempt(slot, 0)
		return
	}
	rt.snap = ckptRecord{progress: snap, bytes: h.taskStateBytes(a, task)}
	rt.xferStart, rt.periodic = now, periodic
	h.changes++ // the CAP turns busy; the save is traced when it lands
	if err := h.board.TransferState(slot, rt.snap.bytes, h.bindCAP(&h.fnsAt(slot).captured, (*Hypervisor).captureDone, slot)); err != nil {
		h.fail(err)
	}
}

// captureDone records a finished capture, then resumes the paused item
// or, when a preemption is pending (always, for an on-demand capture),
// releases the slot. Only periodic saves are traced as ckpt-save
// events; an on-demand capture is reported by the checkpoint event that
// releases the slot.
//
// A CAP completion cannot be cancelled, so it may outlive the occupant
// that started it (an abort or slot death reset the slot mid-save). It
// then finds the slot not saving: the CAP is FIFO, and a freed slot must
// reconfigure behind the in-flight transfer before it can save or
// restore again. The same holds for restoreDone. Both ignore the CAP's
// error argument: a state transfer always completes without one.
func (h *Hypervisor) captureDone(slot int, _ error) {
	if h.halted() {
		return
	}
	rt := &h.slots[slot]
	if !rt.saving {
		h.changes++ // the CAP may turn idle; no event marks it
		return      // the slot was reset mid-save
	}
	a, task, item := rt.app, rt.task, rt.curItem
	d := h.eng.Now().Sub(rt.xferStart)
	rt.last, rt.hasLast = rt.snap, true
	h.rec.CheckpointSaves++
	h.rec.CheckpointOverhead += d
	h.slotBusy[slot] += d
	if rt.periodic {
		h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindCheckpointSave, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item, Dur: d, Progress: rt.snap.progress})
	}
	if rt.preempt {
		h.checkpointPreempt(slot, d)
		return
	}
	rt.saving = false
	h.beginRun(slot)
}

// settle books an attempt that ends without completing: wall compute up
// to the last snapshot is committed run time, everything since is
// wasted, and checkpoint transfer time is never double-counted (it
// lives in CheckpointOverhead). The snapshot goes back to the record's
// map to resume the item later; settle returns it (zero if none).
func (h *Hypervisor) settle(slot int, rt *slotRuntime) ckptRecord {
	a, r, last := rt.app, rt.rec, rt.last
	wall := h.attemptWall(rt)
	var committed sim.Duration
	if rt.hasLast {
		committed = stretchDur(last.progress-rt.base, rt.factor)
		r.setSnapshot(rt.task, rt.curItem, last)
	}
	if committed > wall {
		committed = wall
	}
	r.res.Run += committed
	h.addService(a, committed)
	h.slotBusy[slot] += wall
	h.rec.WastedWork += wall - committed
	return last
}

// checkpointPreempt completes a mid-item preemption of a paused
// attempt: settle it against its snapshot, abort the in-flight item
// (batch progress survives in the App), and free the slot.
func (h *Hypervisor) checkpointPreempt(slot int, saveDur sim.Duration) {
	rt := &h.slots[slot]
	a, r, task, item := rt.app, rt.rec, rt.task, rt.curItem
	last := h.settle(slot, rt)
	aborted, err := a.MarkCheckpointPreempted(task)
	if err != nil {
		h.fail(err)
		return
	}
	if aborted != item {
		h.fail(fmt.Errorf("hv: checkpoint of %s task %d aborted item %d, expected %d", a.Name, task, aborted, item))
		return
	}
	if h.vacate(slot) != nil {
		return
	}
	r.res.Preemptions++
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindCheckpoint, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item, Dur: saveDur, Progress: last.progress})
	h.wake(sched.ReasonSlotFree)
}

// restore moves the item's last snapshot into the slot and starts
// streaming it back through the CAP, probing checkpoint-integrity
// faults. It reports false — run from scratch — when there is no
// snapshot or it was lost.
func (h *Hypervisor) restore(slot int, a *sched.App, task, item int) bool {
	rt := &h.slots[slot]
	last, ok := rt.rec.takeSnapshot(task, item)
	if !ok {
		return false
	}
	var probe fpga.CheckpointOutcome
	if inj := h.board.Injector(); inj != nil {
		probe = inj.Checkpoint(h.eng.Now(), a.Name, task, slot)
	}
	if probe.Lost {
		// The snapshot is gone before a single byte streams back.
		h.snapshotFault(slot, a, task, item, last, 0)
		return false
	}
	rt.last, rt.hasLast = last, true
	rt.base = last.progress
	rt.restoring = true
	rt.snap, rt.corrupt, rt.xferStart = last, probe.Corrupt, h.eng.Now()
	if err := h.board.TransferState(slot, last.bytes, h.bindCAP(&h.fnsAt(slot).restored, (*Hypervisor).restoreDone, slot)); err != nil {
		h.fail(err)
	}
	return true
}

// restoreDone completes a checkpoint restore: the state streamed back
// through the CAP; either the item resumes from the snapshot or (corrupt
// snapshot) re-executes from scratch with the transfer time spent. A
// stale completion finds the slot not restoring (see captureDone).
func (h *Hypervisor) restoreDone(slot int, _ error) {
	if h.halted() {
		return
	}
	rt := &h.slots[slot]
	if !rt.restoring {
		h.changes++ // as in captureDone
		return
	}
	a, task, item, last := rt.app, rt.task, rt.curItem, rt.snap
	d := h.eng.Now().Sub(rt.xferStart)
	h.rec.CheckpointOverhead += d
	h.slotBusy[slot] += d
	if rt.corrupt {
		rt.base = 0
		h.snapshotFault(slot, a, task, item, last, d)
	} else {
		h.rec.ResumedItems++
		h.rec.SavedWork += last.progress
		h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindRestore, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item, Dur: d, Progress: last.progress})
	}
	if rt.preempt {
		// A preemption arrived while state streamed back: honour it now;
		// the snapshot (if intact) resumes on another slot.
		h.checkpointPreempt(slot, 0)
		return
	}
	rt.restoring = false
	h.beginRun(slot)
}

// snapshotFault discards a snapshot found lost or corrupt at restore
// time; the item falls back to from-scratch re-execution.
func (h *Hypervisor) snapshotFault(slot int, a *sched.App, task, item int, last ckptRecord, d sim.Duration) {
	rt := &h.slots[slot]
	rt.last, rt.hasLast = ckptRecord{}, false
	h.rec.FaultsInjected++
	h.rec.CheckpointFaults++
	h.trace(trace.Event{At: h.eng.Now(), Kind: trace.KindCheckpointFault, App: a.Name, AppID: a.ID, Task: task, Slot: slot, Item: item, Dur: d, Progress: last.progress})
}
